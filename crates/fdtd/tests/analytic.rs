//! Analytic regression for the FDTD physics: a plane wave on a
//! periodic domain.
//!
//! The leapfrogged Yee scheme has *exact* discrete eigenmodes. For a
//! TEz wave traveling in x, uniform in y (`Ex ≡ 0`), with spatial
//! wavenumber `k` and Courant number `S`, let
//!
//! ```text
//! a = 2 S sin(k/2),        ω = 2 asin(a/2).
//! ```
//!
//! Then the mode `Ey(i, n) = cos(ωn)·cos(ki)`,
//! `Hz(i, n+1/2) = sin(ω(n+1/2))·sin(k(i+1/2))` satisfies the update
//! equations *identically*: substituting into the discrete curls gives
//! the two-term recurrences `H += a·E` and `E -= a·H`, whose exact
//! solution is that sampled sinusoid. So the stepper must reproduce it
//! to rounding — not truncation — error: the first test asserts
//! machine precision over 100 steps.
//!
//! The numerical-dispersion error lives entirely in `ω ≠ S·k`: per
//! step the phase slips by `≈ S·k³(1−S²)/24`, the textbook
//! second-order bound. The second test pins the discrete run against
//! the *continuum* solution and asserts the accumulated error over
//! 100 steps stays within that bound's envelope.

use fdtd::grid::{Boundary, TezGrid};
use fdtd::kernels::{update_e, update_h};
use llp::Workers;
use std::f64::consts::PI;

const NX: usize = 64;
const NY: usize = 4;
const S: f64 = 0.5;
const STEPS: usize = 100;

/// Seed the exact discrete eigenmode at `n = 0`: `Ey = cos(ki)` with
/// `Hz` a half step behind at `sin(−ω/2)·sin(k(i+1/2))`.
fn eigenmode_grid(k: f64, omega: f64) -> TezGrid {
    let mut g = TezGrid::new(NX, NY, Boundary::Periodic, S);
    for j in 0..NY {
        for i in 0..NX {
            g.e[2 * NX * j + NX + i] = (k * i as f64).cos();
            g.hz[j * NX + i] = (-omega / 2.0).sin() * (k * (i as f64 + 0.5)).sin();
        }
    }
    g
}

fn dispersion(k: f64) -> (f64, f64) {
    let a = 2.0 * S * (k / 2.0).sin();
    let omega = 2.0 * (a / 2.0).asin();
    (a, omega)
}

#[test]
fn discrete_eigenmode_propagates_to_machine_precision() {
    let k = 2.0 * PI / NX as f64;
    let (_, omega) = dispersion(k);
    let mut g = eigenmode_grid(k, omega);
    let pool = Workers::new(3);
    for _ in 0..STEPS {
        update_h(&pool, &mut g, 4);
        update_e(&pool, &mut g, 4);
    }
    let n = STEPS as f64;
    let mut worst_e = 0.0f64;
    let mut worst_h = 0.0f64;
    for j in 0..NY {
        for i in 0..NX {
            let ey = (omega * n).cos() * (k * i as f64).cos();
            let hz = (omega * (n - 0.5)).sin() * (k * (i as f64 + 0.5)).sin();
            worst_e = worst_e.max((g.e[2 * NX * j + NX + i] - ey).abs());
            worst_h = worst_h.max((g.hz[j * NX + i] - hz).abs());
            assert_eq!(g.e[2 * NX * j + i], 0.0, "Ex must stay identically zero");
        }
    }
    // 100 steps of pure rounding accumulation: comfortably below 1e-10
    // (the analytic recurrence is satisfied exactly in real
    // arithmetic).
    assert!(worst_e < 1e-10, "Ey eigenmode error {worst_e:e}");
    assert!(worst_h < 1e-10, "Hz eigenmode error {worst_h:e}");
}

#[test]
fn numerical_dispersion_stays_within_the_textbook_bound() {
    let k = 2.0 * PI / NX as f64;
    let (_, omega) = dispersion(k);

    // The per-step phase slip of the discrete scheme vs the continuum.
    let slip = (omega - S * k).abs();
    let textbook = S * k.powi(3) * (1.0 - S * S) / 24.0;
    assert!(
        slip < 1.5 * textbook,
        "per-step dispersion {slip:e} exceeds bound {textbook:e}"
    );

    // And the accumulated field error over the full run stays inside
    // the phase-slip envelope (error amplitude ≤ accumulated phase
    // error for a unit-amplitude mode, plus margin).
    let mut g = eigenmode_grid(k, omega);
    let pool = Workers::new(2);
    for _ in 0..STEPS {
        update_h(&pool, &mut g, 2);
        update_e(&pool, &mut g, 2);
    }
    let n = STEPS as f64;
    let mut worst = 0.0f64;
    for i in 0..NX {
        let continuum = (S * k * n).cos() * (k * i as f64).cos();
        worst = worst.max((g.e[NX + i] - continuum).abs());
    }
    let envelope = 1.5 * STEPS as f64 * textbook;
    assert!(
        worst < envelope,
        "field error vs continuum {worst:e} exceeds envelope {envelope:e}"
    );
    assert!(worst > 0.0, "the discrete and continuum solutions differ");
}
