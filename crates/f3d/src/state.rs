//! Gas state: conserved ↔ primitive conversions and freestream setup.
//!
//! Conserved variables `Q = (ρ, ρu, ρv, ρw, e)` with `e` the total
//! energy per unit volume; perfect gas with ratio of specific heats
//! [`GAMMA`]. Nondimensionalization follows the usual external-flow
//! convention: freestream density 1, freestream speed of sound 1.

use mesh::NCONS;

/// Ratio of specific heats for air.
pub const GAMMA: f64 = 1.4;

/// Primitive flow variables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Primitive {
    /// Density.
    pub rho: f64,
    /// Cartesian velocity components.
    pub u: f64,
    /// Second velocity component.
    pub v: f64,
    /// Third velocity component.
    pub w: f64,
    /// Static pressure.
    pub p: f64,
}

impl Primitive {
    /// Convert to conserved variables.
    #[must_use]
    pub fn to_conserved(&self) -> [f64; NCONS] {
        let ke = 0.5 * self.rho * (self.u * self.u + self.v * self.v + self.w * self.w);
        [
            self.rho,
            self.rho * self.u,
            self.rho * self.v,
            self.rho * self.w,
            self.p / (GAMMA - 1.0) + ke,
        ]
    }

    /// Convert from conserved variables.
    ///
    /// # Panics
    /// Panics on non-physical states (non-positive density or
    /// pressure) — the solver's stability guard.
    #[must_use]
    #[inline(always)]
    pub fn from_conserved(q: &[f64; NCONS]) -> Self {
        let rho = q[0];
        assert!(rho > 0.0, "non-physical density {rho}");
        let u = q[1] / rho;
        let v = q[2] / rho;
        let w = q[3] / rho;
        let ke = 0.5 * rho * (u * u + v * v + w * w);
        let p = (GAMMA - 1.0) * (q[4] - ke);
        assert!(p > 0.0, "non-physical pressure {p}");
        Self { rho, u, v, w, p }
    }

    /// Speed of sound.
    #[must_use]
    #[inline(always)]
    pub fn sound_speed(&self) -> f64 {
        (GAMMA * self.p / self.rho).sqrt()
    }

    /// Velocity magnitude.
    #[must_use]
    pub fn speed(&self) -> f64 {
        (self.u * self.u + self.v * self.v + self.w * self.w).sqrt()
    }

    /// Mach number.
    #[must_use]
    pub fn mach(&self) -> f64 {
        self.speed() / self.sound_speed()
    }
}

/// A reference flow state (freestream) and helpers derived from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowState {
    /// Freestream Mach number.
    pub mach: f64,
    /// Angle of attack in radians (in the x–z plane, as for the paper's
    /// projectile computations).
    pub alpha: f64,
}

impl FlowState {
    /// Freestream at the given Mach number and angle of attack
    /// (radians).
    ///
    /// # Panics
    /// Panics for a non-positive Mach number.
    #[must_use]
    pub fn freestream(mach: f64, alpha: f64) -> Self {
        assert!(mach > 0.0, "Mach number must be positive");
        Self { mach, alpha }
    }

    /// The freestream primitive state: `ρ∞ = 1`, `a∞ = 1`
    /// (so `p∞ = 1/γ`), velocity `M∞` at angle `α`.
    #[must_use]
    pub fn primitive(&self) -> Primitive {
        Primitive {
            rho: 1.0,
            u: self.mach * self.alpha.cos(),
            v: 0.0,
            w: self.mach * self.alpha.sin(),
            p: 1.0 / GAMMA,
        }
    }

    /// The freestream conserved state.
    #[must_use]
    pub fn conserved(&self) -> [f64; NCONS] {
        self.primitive().to_conserved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_conversion() {
        let p = Primitive {
            rho: 1.3,
            u: 0.4,
            v: -0.2,
            w: 0.1,
            p: 0.9,
        };
        let q = p.to_conserved();
        let back = Primitive::from_conserved(&q);
        assert!((back.rho - p.rho).abs() < 1e-14);
        assert!((back.u - p.u).abs() < 1e-14);
        assert!((back.v - p.v).abs() < 1e-14);
        assert!((back.w - p.w).abs() < 1e-14);
        assert!((back.p - p.p).abs() < 1e-14);
    }

    #[test]
    fn freestream_is_unit_sound_speed() {
        let fs = FlowState::freestream(2.0, 0.0);
        let prim = fs.primitive();
        assert!((prim.sound_speed() - 1.0).abs() < 1e-14);
        assert!((prim.mach() - 2.0).abs() < 1e-14);
        assert_eq!(prim.v, 0.0);
        assert_eq!(prim.w, 0.0);
    }

    #[test]
    fn angle_of_attack_tilts_velocity() {
        let fs = FlowState::freestream(1.5, 0.1);
        let prim = fs.primitive();
        assert!((prim.speed() - 1.5).abs() < 1e-14);
        assert!(prim.w > 0.0);
        assert!((prim.w / prim.u - 0.1f64.tan()).abs() < 1e-14);
    }

    #[test]
    fn energy_partition() {
        let p = Primitive {
            rho: 2.0,
            u: 1.0,
            v: 0.0,
            w: 0.0,
            p: 1.4,
        };
        let q = p.to_conserved();
        // e = p/(gamma-1) + ke = 3.5 + 1.0
        assert!((q[4] - 4.5).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "non-physical density")]
    fn negative_density_panics() {
        let _ = Primitive::from_conserved(&[-1.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "non-physical pressure")]
    fn negative_pressure_panics() {
        // huge kinetic energy, tiny total energy
        let _ = Primitive::from_conserved(&[1.0, 10.0, 0.0, 0.0, 1.0]);
    }
}
