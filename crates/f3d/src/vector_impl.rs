//! The **vector-style** implementation: the structure of the original
//! vectorizable F3D.
//!
//! Characteristics of the legacy code, reproduced here:
//!
//! * **Component-outer (SoA) storage** — each conserved variable is a
//!   long contiguous stream, the natural layout for a vector machine.
//! * **Plane-sized scratch arrays** — the implicit sweeps batch a whole
//!   plane of pencils into scratch ("the size of the scratch arrays
//!   were proportional to the size of a plane of data"), because the
//!   vector machine needed a long vectorizable index orthogonal to each
//!   recurrence. For the paper's large zones this scratch cannot fit in
//!   any cache, which is exactly why this code ran so poorly on RISC
//!   machines (the Convex Exemplar anecdote in Section 5).
//! * **Serial** — this implementation never parallelizes anything; it
//!   is the single-processor baseline for the serial-tuning experiment.
//!
//! The numerics are identical to [`crate::risc_impl`]: both call the
//! kernels in [`crate::solver`].

use crate::bc::{self, ZoneBcs};
use crate::solver::{
    implicit_central_pencil_w, implicit_upwind_pencil_w, pencil_point, residual_rhs_row_w,
    PencilScratch, RowScratch, SolverConfig, ZoneSolver,
};
use mesh::{Arrangement, Axis, Ijk, Layout, Metrics, StateField, NCONS};

/// The vector-style stepper: owns the plane-sized scratch (like the
/// Fortran original's static work arrays).
#[derive(Debug)]
pub struct VectorStepper {
    /// One pencil scratch per pencil of the largest plane — plane-sized
    /// scratch, the legacy footprint.
    plane_scratch: Vec<PencilScratch>,
    /// The residual / ΔQ field (SoA like the solution).
    rhs: StateField,
    /// J-row buffer for the residual kernel.
    row_scratch: RowScratch,
}

impl VectorStepper {
    /// Build a zone initialized to freestream with the legacy storage
    /// arrangement, plus its stepper.
    #[must_use]
    pub fn new_zone(config: SolverConfig, metrics: Metrics) -> (ZoneSolver, Self) {
        let zone =
            ZoneSolver::freestream(config, metrics, Layout::jkl(), Arrangement::ComponentOuter);
        let stepper = Self::for_zone(&zone);
        (zone, stepper)
    }

    /// Build a stepper sized for `zone`.
    #[must_use]
    pub fn for_zone(zone: &ZoneSolver) -> Self {
        let d = zone.dims();
        let max_pencil = d.j.max(d.k).max(d.l);
        // The largest plane the sweeps batch: K pencils per J-plane or
        // J pencils per K/L-plane.
        let max_plane_pencils = (d.k.max(d.l)).max(d.j);
        Self {
            plane_scratch: (0..max_plane_pencils)
                .map(|_| PencilScratch::new(max_pencil))
                .collect(),
            rhs: StateField::zeros(d, zone.q.layout(), zone.q.arrangement()),
            row_scratch: RowScratch::new(d.j),
        }
    }

    /// Advance one time step (serial).
    pub fn step(&mut self, zone: &mut ZoneSolver, bcs: &ZoneBcs) {
        let d = zone.dims();
        let eps2 = zone.config.eps2;
        let eps_imp = zone.config.eps_imp;
        let mu_vis = zone.config.viscosity;

        // --- Explicit residual: rhs = -dt * R(Q), faces zero. ---
        // Legacy loop order: L outer, K middle, J inner (long vectors),
        // one point at a time: the reference the tuned stepper's lane
        // groups are checked against.
        for l in 0..d.l {
            for k in 0..d.k {
                if l == 0 || l == d.l - 1 || k == 0 || k == d.k - 1 {
                    for j in 0..d.j {
                        self.rhs.set(Ijk::new(j, k, l), [0.0; NCONS]);
                    }
                    continue;
                }
                self.rhs.set(Ijk::new(0, k, l), [0.0; NCONS]);
                self.rhs.set(Ijk::new(d.j - 1, k, l), [0.0; NCONS]);
                residual_rhs_row_w(zone, k, l, eps2, 1, &mut self.row_scratch);
                for j in 1..d.j - 1 {
                    self.rhs.set(Ijk::new(j, k, l), self.row_scratch.row()[j]);
                }
            }
        }

        // --- J factor: for each L-plane, batch ALL K pencils of the
        // plane into plane scratch, then solve them (the SUBA/SUBB
        // plane-buffer structure of Example 3's original code). ---
        for l in 0..d.l {
            // gather the whole plane
            for k in 0..d.k {
                let base = Ijk::new(0, k, l);
                let s = &mut self.plane_scratch[k];
                s.gather(zone, Axis::J, base);
                for j in 0..d.j {
                    s.rhs_line[j] = self.rhs.get(pencil_point(base, Axis::J, j));
                }
            }
            // solve the whole plane
            for s in self.plane_scratch[..d.k].iter_mut() {
                implicit_upwind_pencil_w(s, d.j, 1);
            }
            // scatter the whole plane
            for k in 0..d.k {
                let base = Ijk::new(0, k, l);
                for j in 0..d.j {
                    let v = self.plane_scratch[k].rhs_line[j];
                    self.rhs.set(pencil_point(base, Axis::J, j), v);
                }
            }
        }

        // --- K factor: per L-plane, batch all J pencils (along K). ---
        for l in 0..d.l {
            for j in 0..d.j {
                let base = Ijk::new(j, 0, l);
                let s = &mut self.plane_scratch[j];
                s.gather(zone, Axis::K, base);
                for k in 0..d.k {
                    s.rhs_line[k] = self.rhs.get(pencil_point(base, Axis::K, k));
                }
            }
            for s in self.plane_scratch[..d.j].iter_mut() {
                implicit_central_pencil_w(s, d.k, eps_imp, 0.0, 1);
            }
            for j in 0..d.j {
                let base = Ijk::new(j, 0, l);
                for k in 0..d.k {
                    let v = self.plane_scratch[j].rhs_line[k];
                    self.rhs.set(pencil_point(base, Axis::K, k), v);
                }
            }
        }

        // --- L factor: per K-plane, batch all J pencils (along L). ---
        for k in 0..d.k {
            for j in 0..d.j {
                let base = Ijk::new(j, k, 0);
                let s = &mut self.plane_scratch[j];
                s.gather(zone, Axis::L, base);
                for l in 0..d.l {
                    s.rhs_line[l] = self.rhs.get(pencil_point(base, Axis::L, l));
                }
            }
            for s in self.plane_scratch[..d.j].iter_mut() {
                implicit_central_pencil_w(s, d.l, eps_imp, mu_vis, 1);
            }
            for j in 0..d.j {
                let base = Ijk::new(j, k, 0);
                for l in 0..d.l {
                    let v = self.plane_scratch[j].rhs_line[l];
                    self.rhs.set(pencil_point(base, Axis::L, l), v);
                }
            }
        }

        // --- Update interior points, then boundary conditions. ---
        for l in 0..d.l {
            for k in 0..d.k {
                for j in 0..d.j {
                    let p = Ijk::new(j, k, l);
                    if d.on_boundary(p) {
                        continue;
                    }
                    let mut q = zone.q.get(p);
                    let dq = self.rhs.get(p);
                    for c in 0..NCONS {
                        q[c] += dq[c];
                    }
                    zone.q.set(p, q);
                }
            }
        }
        bc::apply_all(zone, bcs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::Dims;

    fn small_case() -> (ZoneSolver, VectorStepper) {
        let d = Dims::new(8, 7, 6);
        VectorStepper::new_zone(
            SolverConfig::supersonic(),
            Metrics::cartesian(d, (0.25, 0.25, 0.25)),
        )
    }

    #[test]
    fn freestream_is_a_fixed_point() {
        let (mut zone, mut stepper) = small_case();
        let bcs = ZoneBcs::all_freestream();
        for _ in 0..3 {
            stepper.step(&mut zone, &bcs);
        }
        assert!(
            zone.freestream_deviation() < 1e-12,
            "deviation {}",
            zone.freestream_deviation()
        );
    }

    #[test]
    fn perturbation_decays_toward_freestream() {
        let (mut zone, mut stepper) = small_case();
        let bcs = ZoneBcs::all_freestream();
        // Small density bump in the middle.
        let center = Ijk::new(4, 3, 3);
        let mut q = zone.q.get(center);
        q[0] *= 1.05;
        q[4] *= 1.05;
        zone.q.set(center, q);
        let initial = zone.freestream_deviation();
        for _ in 0..30 {
            stepper.step(&mut zone, &bcs);
        }
        let fin = zone.freestream_deviation();
        assert!(
            fin < 0.3 * initial,
            "deviation did not decay: {initial} -> {fin}"
        );
    }

    #[test]
    fn solution_stays_physical() {
        let (mut zone, mut stepper) = small_case();
        let bcs = ZoneBcs::projectile();
        let p0 = Ijk::new(3, 3, 2);
        let mut q = zone.q.get(p0);
        q[0] *= 1.02;
        zone.q.set(p0, q);
        for _ in 0..10 {
            stepper.step(&mut zone, &bcs);
        }
        // from_conserved panics on non-physical states, so a full scan
        // doubles as the assertion.
        for p in zone.dims().iter_jkl() {
            let _ = crate::state::Primitive::from_conserved(&zone.q.get(p));
        }
    }

    #[test]
    fn scratch_is_plane_sized() {
        let (zone, stepper) = small_case();
        // plane scratch must scale with the largest plane dimension,
        // i.e. be much larger than a single pencil's scratch.
        let one_pencil =
            PencilScratch::new(zone.dims().j.max(zone.dims().k).max(zone.dims().l)).bytes();
        let plane: usize = stepper.plane_scratch.iter().map(PencilScratch::bytes).sum();
        assert!(plane >= 6 * one_pencil);
    }

    #[test]
    fn uses_legacy_storage() {
        let (zone, _) = small_case();
        assert_eq!(zone.q.arrangement(), Arrangement::ComponentOuter);
        assert_eq!(zone.q.layout(), Layout::jkl());
    }
}
