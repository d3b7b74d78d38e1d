//! The **RISC-tuned shared-memory** implementation: the paper's
//! production result.
//!
//! What changed relative to [`crate::vector_impl`], following
//! Section 4 of the paper point by point:
//!
//! * **Component-inner (AoS) storage** — all five conserved variables
//!   of a point share a cache line, maximizing work per cache miss.
//! * **Pencil-sized scratch** — each implicit sweep works from a
//!   scratch buffer that "comfortably fits in a 1-MB cache for zone
//!   dimensions ranging up to about 1,000"; one scratch lives per
//!   *worker* and is reused across all its pencils (paper Example 3:
//!   the parallel loop is hoisted into the parent and the 2-D buffer
//!   shrinks to 1-D).
//! * **Pencil bundles** — the 1-D buffer holds [`PENCIL_BUNDLE`]
//!   adjacent pencils, eliminated in lockstep: one pencil's block-Thomas
//!   recurrence is a single dependent chain, a bundle's is that many
//!   independent ones over contiguous lanes. The plane buffer cut down
//!   to what fits in cache, rather than all the way to one pencil.
//! * **Outer-loop doacross parallelism** — every sweep parallelizes an
//!   outer loop orthogonal to its recurrence: the J and K factors and
//!   the residual over L, the L factor over K (paper Example 1).
//! * **Loops that share the outer loop are fused** — the residual and
//!   the J and K factors all run over L, and plane `l` of each needs
//!   only plane `l` of the one before, so they are three bodies of one
//!   [`llp::FusedRegion`] over the L-planes of `rhs`, which takes each
//!   plane through all three while it is in cache (paper Examples 2–3:
//!   the parallel loop hoisted into the parent). A zone step is three
//!   regions — `rhs_jk`, `l_factor_solve`, `update` — each a single
//!   synchronization event. The model ([`crate::trace::risc_zone_trace`])
//!   keeps the paper's five loops; the stepper's `rhs_jk` is its Rhs,
//!   JFactor and KFactor at the same L parallelism.
//! * **Boundary conditions stay serial** — their work per sync event
//!   cannot pay for a barrier (Table 2).
//!
//! Every factor solves in place on `rhs`'s J-rows. The L factor's
//! pencils run across the L-slabs that partition memory, so its region
//! hands each worker the rows regrouped by `k` — row `(k, l)` for every
//! `l` — rather than slabs: disjoint groups of row slices state in safe
//! Rust the disjointness the Fortran original left to the programmer.

use crate::bc::{self, ZoneBcs};
use crate::solver::{
    implicit_factor_bundle, pencil_point, residual_rhs_row_w, CentralFactor, ImplicitFactor,
    PencilScratch, RowScratch, SolverConfig, UpwindFactor, ZoneSolver, PENCIL_BUNDLE,
    RESIDUAL_LANES,
};
use llp::obs::SpanKind;
use llp::{doacross_slabs, doacross_slabs_scratch, FusedBodies, FusedRegion, ScheduleMap, Workers};
use mesh::{Arrangement, Axis, Ijk, Layout, Metrics, StateField, NCONS};
use solver::{for_lane_groups, LaneBody};

/// A worker's `rhs_jk` scratch: the residual's J-row buffer with the
/// row's split fluxes, and one bundle.
type PlaneScratch = (RowScratch, PencilScratch);

/// The tuned stepper.
#[derive(Debug)]
pub struct RiscStepper {
    /// Residual / ΔQ field (AoS like the solution).
    rhs: StateField,
    /// Longest pencil of the zone (scratch sizing).
    max_pencil: usize,
}

impl RiscStepper {
    /// Build a zone initialized to freestream with the tuned storage
    /// arrangement, plus its stepper.
    #[must_use]
    pub fn new_zone(config: SolverConfig, metrics: Metrics) -> (ZoneSolver, Self) {
        let zone =
            ZoneSolver::freestream(config, metrics, Layout::jkl(), Arrangement::ComponentInner);
        let stepper = Self::for_zone(&zone);
        (zone, stepper)
    }

    /// Build a stepper sized for `zone`.
    ///
    /// # Panics
    /// Panics if the zone does not use the tuned storage (J-fastest
    /// layout, component-inner arrangement) — the slab arithmetic
    /// depends on it.
    #[must_use]
    pub fn for_zone(zone: &ZoneSolver) -> Self {
        assert_eq!(
            zone.q.layout(),
            Layout::jkl(),
            "RiscStepper requires the JKL layout"
        );
        assert_eq!(
            zone.q.arrangement(),
            Arrangement::ComponentInner,
            "RiscStepper requires component-inner (AoS) storage"
        );
        let d = zone.dims();
        Self {
            rhs: StateField::zeros(d, zone.q.layout(), zone.q.arrangement()),
            max_pencil: d.j.max(d.k).max(d.l),
        }
    }

    /// Bytes of scratch *per worker* — what one worker holds in the
    /// fused `rhs_jk` region (the residual's J-row buffer with its split
    /// fluxes, and one pencil bundle), the most any region of the step
    /// gives it: the quantity the paper fits into cache.
    #[must_use]
    pub fn scratch_bytes_per_worker(&self) -> usize {
        RowScratch::new(self.rhs.dims().j).bytes()
            + PencilScratch::for_pencils(self.max_pencil, PENCIL_BUNDLE).bytes()
    }

    /// Advance one time step using `workers`. Each parallel region runs
    /// on a [`Workers::scheduled_view`] carrying the worker count and
    /// policy `schedules` maps its kernel name to (`rhs_jk`,
    /// `l_factor_solve`, `update`), falling back to `workers`'s own
    /// configuration for unmapped kernels and for `None`. Numerics are
    /// invariant to the overrides — only the performance shape changes.
    ///
    /// Every region opens one kernel span on `workers`' recorder (free
    /// when disabled), so the per-loop profile of a run on
    /// [`Workers::recorded`] is `take_report(..).kernel_summaries()`.
    pub fn step(
        &mut self,
        zone: &mut ZoneSolver,
        bcs: &ZoneBcs,
        workers: &Workers,
        schedules: Option<&ScheduleMap>,
    ) {
        {
            let _span = workers.recorder().span("rhs_jk", SpanKind::Kernel);
            self.rhs_jk(zone)
                .run(&workers.scheduled_view(schedules, "rhs_jk"));
        }
        self.finish_step(zone, bcs, workers, schedules);
    }

    /// The residual, J factor and K factor: three bodies over the
    /// L-planes of `rhs`, filling each plane with rhs = -dt R(Q) row by
    /// row, then solving it in place along J (adjacent-K pencils per
    /// bundle) and K. Boundary planes and pencils carry zero RHS.
    fn rhs_jk<'a>(
        &'a mut self,
        zone: &'a ZoneSolver,
    ) -> FusedRegion<
        'a,
        f64,
        impl Fn() -> PlaneScratch + Sync + 'a,
        impl FusedBodies<f64, PlaneScratch> + 'a,
    > {
        let d = zone.dims();
        let (jmax, kmax, lmax) = (d.j, d.k, d.l);
        let (eps2, eps_imp) = (zone.config.eps2, zone.config.eps_imp);
        // J-row `r` of `rhs` holds the points (·, r % kmax, r / kmax), so
        // L-plane `l` is one slab of `kmax` consecutive rows.
        let row_len = jmax * NCONS;
        let max_pencil = self.max_pencil;
        let boundary = move |l: usize| l == 0 || l == lmax - 1;
        FusedRegion::slabs(self.rhs.as_mut_slice(), kmax * row_len, move || {
            let pencils = PencilScratch::for_pencils(max_pencil, PENCIL_BUNDLE);
            (RowScratch::new(jmax), pencils)
        })
        .body(move |l, plane, (row, _)| {
            for (k, out) in plane.chunks_exact_mut(row_len).enumerate() {
                if boundary(l) || k == 0 || k == kmax - 1 {
                    out.fill(0.0);
                    continue;
                }
                out[..NCONS].fill(0.0);
                out[row_len - NCONS..].fill(0.0);
                residual_rhs_row_w(zone, k, l, eps2, RESIDUAL_LANES, row);
                for j in 1..jmax - 1 {
                    out[j * NCONS..(j + 1) * NCONS].copy_from_slice(&row.row()[j]);
                }
            }
        })
        .body(move |l, plane, (_, pencils)| {
            if boundary(l) {
                return;
            }
            let mut j_sweep = FactorSweep {
                zone,
                factor: UpwindFactor,
                axis: Axis::J,
                across: Axis::K,
                origin: Ijk::new(0, 0, l),
                rows: plane,
                scratch: pencils,
            };
            for_lane_groups(PENCIL_BUNDLE, 1..kmax - 1, &mut j_sweep);
        })
        .body(move |l, plane, (_, pencils)| {
            if boundary(l) {
                return;
            }
            let mut k_sweep = FactorSweep {
                zone,
                factor: CentralFactor {
                    eps_imp,
                    mu_vis: 0.0,
                },
                axis: Axis::K,
                across: Axis::J,
                origin: Ijk::new(0, 0, l),
                rows: plane,
                scratch: pencils,
            };
            for_lane_groups(PENCIL_BUNDLE, 1..jmax - 1, &mut k_sweep);
        })
    }

    /// The rest of a step once `rhs_jk` has run: the L factor, the
    /// update and the boundary conditions.
    fn finish_step(
        &mut self,
        zone: &mut ZoneSolver,
        bcs: &ZoneBcs,
        workers: &Workers,
        schedules: Option<&ScheduleMap>,
    ) {
        let d = zone.dims();
        let (jmax, kmax, lmax) = (d.j, d.k, d.l);
        let (eps_imp, mu_vis) = (zone.config.eps_imp, zone.config.viscosity);
        let row_len = jmax * NCONS;
        let slab = kmax * row_len;
        // Element offset of (j, k, component c) within an L-slab under
        // AoS + JKL layout.
        let at = move |j: usize, k: usize, c: usize| (k * jmax + j) * NCONS + c;
        let rec = workers.recorder();

        // --- L factor: pencils along L, parallel over K, adjacent-J
        // pencils per bundle. Its pencils cross the L-planes, so the
        // rows are regrouped by `k` — group `k` holds rows (k, l) for
        // every `l` — and each group is a one-element slab. ---
        {
            let _span = rec.span("l_factor_solve", SpanKind::Kernel);
            let kw = workers.scheduled_view(schedules, "l_factor_solve");
            let zone_ref: &ZoneSolver = zone;
            let mut groups: Vec<Vec<&mut [f64]>> =
                (0..kmax).map(|_| Vec::with_capacity(lmax)).collect();
            for (r, row) in self.rhs.as_mut_slice().chunks_mut(row_len).enumerate() {
                groups[r % kmax].push(row);
            }
            doacross_slabs_scratch(
                &kw,
                &mut groups,
                1,
                || PencilScratch::for_pencils(self.max_pencil, PENCIL_BUNDLE),
                |k, group, scratch| {
                    if k == 0 || k == kmax - 1 {
                        return;
                    }
                    let mut sweep = FactorSweep {
                        zone: zone_ref,
                        factor: CentralFactor { eps_imp, mu_vis },
                        axis: Axis::L,
                        across: Axis::J,
                        origin: Ijk::new(0, k, 0),
                        rows: group[0].as_mut_slice(),
                        scratch,
                    };
                    for_lane_groups(PENCIL_BUNDLE, 1..jmax - 1, &mut sweep);
                },
            );
        }

        // --- Update interior points; parallel over L. ---
        {
            let _span = rec.span("update", SpanKind::Kernel);
            let kw = workers.scheduled_view(schedules, "update");
            let rhs_ref: &StateField = &self.rhs;
            doacross_slabs(&kw, zone.q.as_mut_slice(), slab, |l, slab_data| {
                if l == 0 || l == lmax - 1 {
                    return;
                }
                for k in 1..kmax - 1 {
                    for j in 1..jmax - 1 {
                        let dq = rhs_ref.get(Ijk::new(j, k, l));
                        for c in 0..NCONS {
                            slab_data[at(j, k, c)] += dq[c];
                        }
                    }
                }
            });
        }

        // --- Boundary conditions: serial, as the paper recommends. ---
        {
            let _span = rec.span("bc", SpanKind::Kernel);
            bc::apply_all(zone, bcs);
        }
    }
}

/// The J-rows of `rhs` a sweep solves on, by row index: an L-plane's
/// `kmax` rows lie contiguously in its slab (`[f64]`, row `r` at
/// `r * len`), a K group's rows are one slice per `l`
/// (`[&mut [f64]]`).
trait Rows {
    /// Row `r`, `len` elements long.
    fn row(&mut self, r: usize, len: usize) -> &mut [f64];
}

impl Rows for [f64] {
    #[inline]
    fn row(&mut self, r: usize, len: usize) -> &mut [f64] {
        &mut self[r * len..(r + 1) * len]
    }
}

impl Rows for [&mut [f64]] {
    #[inline]
    fn row(&mut self, r: usize, _len: usize) -> &mut [f64] {
        self[r]
    }
}

/// One sweep's share of an implicit factor — the pencils along `axis`
/// through one group of `rhs` rows — solved in place a bundle at a
/// time: lane = pencil, adjacent along `across`.
struct FactorSweep<'a, F, R: ?Sized> {
    zone: &'a ZoneSolver,
    factor: F,
    /// The recurrence direction.
    axis: Axis,
    /// The direction the pencils of a bundle are adjacent in.
    across: Axis,
    /// Point 0 of pencil 0.
    origin: Ijk,
    /// The group's J-rows (`j`, then the component, innermost), indexed
    /// by the point's coordinate along whichever of `axis` and `across`
    /// is not J: a plane's rows by `k`, a K group's by `l`.
    rows: &'a mut R,
    scratch: &'a mut PencilScratch,
}

impl<F: ImplicitFactor, R: Rows + ?Sized> LaneBody for FactorSweep<'_, F, R> {
    #[inline]
    fn group<const W: usize>(&mut self, first: usize) {
        let n = self.zone.dims().extent(self.axis);
        let len = self.zone.dims().j * NCONS;
        let bases: [Ijk; W] =
            std::array::from_fn(|lane| pencil_point(self.origin, self.across, first + lane));
        let row_axis = if self.axis == Axis::J {
            self.across
        } else {
            self.axis
        };
        let at = |p: Ijk| (p.along(row_axis), p.j * NCONS);
        self.scratch.gather_bundle(self.zone, self.axis, bases);
        for i in 0..n {
            for (lane, &base) in bases.iter().enumerate() {
                let (row, col) = at(pencil_point(base, self.axis, i));
                self.scratch.rhs_line[i * W + lane]
                    .copy_from_slice(&self.rows.row(row, len)[col..col + NCONS]);
            }
        }
        implicit_factor_bundle::<W, F>(self.scratch, n, &self.factor);
        for i in 0..n {
            for (lane, &base) in bases.iter().enumerate() {
                let (row, col) = at(pencil_point(base, self.axis, i));
                self.rows.row(row, len)[col..col + NCONS]
                    .copy_from_slice(&self.scratch.rhs_line[i * W + lane]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::Dims;

    fn small_case() -> (ZoneSolver, RiscStepper) {
        let d = Dims::new(8, 7, 6);
        RiscStepper::new_zone(
            SolverConfig::supersonic(),
            Metrics::cartesian(d, (0.25, 0.25, 0.25)),
        )
    }

    #[test]
    fn freestream_is_a_fixed_point() {
        let (mut zone, mut stepper) = small_case();
        let workers = Workers::new(3);
        let bcs = ZoneBcs::all_freestream();
        for _ in 0..3 {
            stepper.step(&mut zone, &bcs, &workers, None);
        }
        assert!(
            zone.freestream_deviation() < 1e-12,
            "deviation {}",
            zone.freestream_deviation()
        );
    }

    /// Step a perturbed zone of dims `d` three times with the
    /// one-pencil `VectorStepper` and with this stepper on `workers`
    /// at every P in `ps` under every policy in `policies`: the fields
    /// must agree to the bit after every step.
    fn assert_matches_vector(
        config: SolverConfig,
        d: Dims,
        ps: &[usize],
        policies: &[llp::Policy],
    ) {
        let bcs = ZoneBcs::projectile();
        let metrics = Metrics::cartesian(d, (0.3, 0.3, 0.3));
        let perturb = |zone: &mut ZoneSolver| {
            for p in d.iter_jkl() {
                let mut q = zone.q.get(p);
                q[0] *= 1.0 + 0.02 * ((p.j + 2 * p.k + 3 * p.l) as f64).sin();
                q[4] *= 1.0 + 0.01 * ((2 * p.j + p.k + p.l) as f64).cos();
                zone.q.set(p, q);
            }
        };
        let (mut vz, mut vstep) =
            crate::vector_impl::VectorStepper::new_zone(config, metrics.clone());
        perturb(&mut vz);
        let mut expected = Vec::new();
        for _ in 0..3 {
            vstep.step(&mut vz, &bcs);
            expected.push(vz.q.clone());
        }
        for &p in ps {
            for &policy in policies {
                let workers = Workers::new(p).with_policy(policy);
                let (mut rz, mut rstep) = RiscStepper::new_zone(config, metrics.clone());
                perturb(&mut rz);
                for (step, want) in expected.iter().enumerate() {
                    rstep.step(&mut rz, &bcs, &workers, None);
                    assert_eq!(
                        want.max_abs_diff(&rz.q),
                        0.0,
                        "diverged at step {step}: {d:?}, P = {p}, {policy:?}, viscous {}",
                        config.is_viscous()
                    );
                }
            }
        }
    }

    /// Both configurations: the viscous, locally time-stepped one
    /// exercises `mu_vis` and a per-point `dt` in every lane.
    fn configs() -> [SolverConfig; 2] {
        [
            SolverConfig::subsonic(),
            SolverConfig::viscous(2.0, 1e4).with_local_time_stepping(2.0),
        ]
    }

    #[test]
    fn matches_vector_implementation_exactly() {
        // The paper's hard constraint: the parallelized code runs the
        // same algorithm. Both implementations must produce identical
        // fields from identical initial conditions — to the bit: the
        // vector stepper evaluates the residual one point at a time and
        // solves one pencil at a time, plane by plane and sweep by
        // sweep; this one evaluates RESIDUAL_LANES points per group and
        // solves bundles with a one-pencil remainder, each L-plane
        // through residual, J and K in one fused region. The interior
        // extents leave every remainder mod PENCIL_BUNDLE in all three
        // sweeps (J bundles over K, K and L over J) and mod
        // RESIDUAL_LANES along J; the self-scheduled policies chunk the
        // fused planes unevenly.
        let policies = [
            llp::Policy::Static,
            llp::Policy::Dynamic { chunk: 1 },
            llp::Policy::Dynamic { chunk: 3 },
            llp::Policy::Guided { min_chunk: 2 },
        ];
        for config in configs() {
            for (nj, nk) in (4..=7).flat_map(|nj| (4..=7).map(move |nk| (nj, nk))) {
                assert_matches_vector(config, Dims::new(nj + 2, nk + 2, 6), &[1, 3], &policies);
            }
        }
    }

    #[test]
    fn in_place_l_factor_is_exact_under_every_chunking_of_the_k_groups() {
        // The L factor hands each worker whole K groups of `rhs` rows
        // and solves them in place, so what a chunk holds must not
        // matter: L extents from the shortest pencil (one interior
        // point) to ones that are not multiples of P, seven K groups
        // against every P, every policy.
        let policies = [
            llp::Policy::Static,
            llp::Policy::Dynamic { chunk: 1 },
            llp::Policy::Dynamic { chunk: 3 },
            llp::Policy::Guided { min_chunk: 2 },
        ];
        for config in configs() {
            for lmax in [3, 6, 9] {
                assert_matches_vector(config, Dims::new(7, 7, lmax), &[1, 2, 3, 5], &policies);
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (z0, _) = small_case();
        let bcs = ZoneBcs::projectile();
        let mut results = Vec::new();
        for nw in [1usize, 2, 5] {
            let (mut zone, mut stepper) = small_case();
            // re-derive the same perturbed IC
            for p in z0.dims().iter_jkl() {
                let mut q = zone.q.get(p);
                q[0] *= 1.0 + 0.01 * (p.j as f64 - p.l as f64) / 10.0;
                zone.q.set(p, q);
            }
            let workers = Workers::new(nw);
            for _ in 0..3 {
                stepper.step(&mut zone, &bcs, &workers, None);
            }
            results.push(zone.q.clone());
        }
        assert_eq!(results[0].max_abs_diff(&results[1]), 0.0);
        assert_eq!(results[0].max_abs_diff(&results[2]), 0.0);
    }

    #[test]
    fn sync_events_per_step_are_counted() {
        let (mut zone, mut stepper) = small_case();
        let workers = Workers::new(2);
        workers.reset_counters();
        stepper.step(&mut zone, &ZoneBcs::all_freestream(), &workers, None);
        // rhs_jk (the model's rhs, J and K loops fused), l, update.
        assert_eq!(workers.sync_event_count(), 3);
    }

    #[test]
    fn rhs_jk_run_unfused_steps_to_the_same_bits_in_three_regions() {
        // The paper's three loops run as three regions leave every plane
        // as the fused region does: each body reads only its own plane.
        let bcs = ZoneBcs::projectile();
        let step = |fused: bool| {
            let (mut zone, mut stepper) = small_case();
            for p in zone.dims().iter_jkl() {
                let mut q = zone.q.get(p);
                q[0] *= 1.0 + 0.02 * ((p.j + 2 * p.k + 3 * p.l) as f64).sin();
                zone.q.set(p, q);
            }
            let workers = Workers::new(3);
            let region = stepper.rhs_jk(&zone);
            if fused {
                region.run(&workers);
            } else {
                region.run_unfused(&workers);
            }
            let regions = workers.sync_event_count();
            stepper.finish_step(&mut zone, &bcs, &workers, None);
            (zone.q, regions)
        };
        let (fused, one) = step(true);
        let (unfused, three) = step(false);
        assert_eq!((one, three), (1, 3));
        assert_eq!(fused.max_abs_diff(&unfused), 0.0);
        assert!(fused.max_abs_diff(&small_case().0.q) > 0.0);
    }

    #[test]
    fn recorded_step_emits_kernel_spans() {
        let (mut zone, mut stepper) = small_case();
        let workers = Workers::recorded(2);
        stepper.step(&mut zone, &ZoneBcs::all_freestream(), &workers, None);
        let report = workers.recorder().take_report("risc-step", 2);
        assert_eq!(report.sync_events(), 3);
        let kernels = report.kernel_summaries();
        let names: Vec<&str> = kernels.iter().map(|k| k.name.as_str()).collect();
        // Summaries are sorted by name.
        assert_eq!(names, ["bc", "l_factor_solve", "rhs_jk", "update"]);
        let bc = kernels.iter().find(|k| k.name == "bc").unwrap();
        assert!(!bc.parallelized);
        assert_eq!(bc.sync_events, 0);
        let fused = kernels.iter().find(|k| k.name == "rhs_jk").unwrap();
        assert!(fused.parallelized);
        assert_eq!(fused.parallelism, 6); // L extent
        assert_eq!(fused.sync_events, 1);
        let solve = kernels.iter().find(|k| k.name == "l_factor_solve").unwrap();
        assert_eq!(solve.parallelism, 7); // K extent
    }

    #[test]
    fn scratch_is_pencil_sized() {
        let (_, stepper) = small_case();
        // Per-worker scratch must be tiny compared to a 1-MB cache.
        assert!(stepper.scratch_bytes_per_worker() < 1 << 20);
    }

    #[test]
    #[should_panic(expected = "component-inner")]
    fn wrong_arrangement_rejected() {
        let d = Dims::new(4, 4, 4);
        let zone = ZoneSolver::freestream(
            SolverConfig::subsonic(),
            Metrics::cartesian(d, (1.0, 1.0, 1.0)),
            Layout::jkl(),
            Arrangement::ComponentOuter,
        );
        let _ = RiscStepper::for_zone(&zone);
    }
}
