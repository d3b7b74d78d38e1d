//! The multi-zone solver driver: zones stepped with loop-level
//! parallelism, or with Taft-style multi-level parallelism (MLP —
//! paper Section 8) as one [`llp::zones`] region, with zonal
//! injection between steps.
//!
//! Within one time step the zones are independent (injection happens
//! at step boundaries), so the MLP outer level is embarrassingly
//! parallel and the modes are numerically identical — asserted by
//! tests. What differs is the performance shape: pure loop-level
//! parallelism is capped by the *smallest per-zone loop extent* (the
//! stair-step ceiling), while MLP multiplies the ceilings of zones that
//! run concurrently at the price of zone-level load imbalance.
//!
//! The zones form a J-chain: zone `i` exchanges boundary data with
//! zone `i + 1` through their shared K×L planes, once per step, after
//! every zone has stepped. Both the sequential sweep
//! ([`MultiZoneSolver::step_loop_level`]) and the sharded dispatch
//! ([`MultiZoneSolver::step_zone_parallel`]) step every zone, then
//! inject through one function — the chain's exchanges in their one
//! order — so the sequential sweep is literally the 1-shard degenerate
//! case and the bit-exactness between them is structural, not
//! coincidental.

use crate::bc::{self, BcKind, Face, ZoneBcs};
use crate::risc_impl::RiscStepper;
use crate::solver::{SolverConfig, ZoneSolver};
use llp::obs::SpanKind;
use llp::Workers;
use mesh::{Axis, Metrics, MultiZoneGrid};

/// A multi-zone solver: zone states, steppers, and per-zone BCs.
#[derive(Debug)]
pub struct MultiZoneSolver {
    zones: Vec<ZoneSolver>,
    steppers: Vec<RiscStepper>,
    bcs: Vec<ZoneBcs>,
    names: Vec<String>,
}

impl MultiZoneSolver {
    /// Build from a grid description: every zone gets Cartesian metrics
    /// with the given spacing, freestream initial conditions, and
    /// projectile-style BCs with zonal faces at the interfaces.
    #[must_use]
    pub fn from_grid(grid: &MultiZoneGrid, config: SolverConfig, spacing: f64) -> Self {
        let n = grid.zones().len();
        let mut zones = Vec::with_capacity(n);
        let mut steppers = Vec::with_capacity(n);
        let mut bcs = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        for (i, spec) in grid.zones().iter().enumerate() {
            names.push(spec.name.clone());
            let metrics = Metrics::cartesian(spec.dims, (spacing, spacing, spacing));
            let (zone, stepper) = RiscStepper::new_zone(config, metrics);
            zones.push(zone);
            steppers.push(stepper);
            let mut b = ZoneBcs::projectile();
            if i > 0 {
                b = b.with(
                    Face {
                        axis: Axis::J,
                        high: false,
                    },
                    BcKind::Zonal,
                );
            }
            if i + 1 < n {
                b = b.with(
                    Face {
                        axis: Axis::J,
                        high: true,
                    },
                    BcKind::Zonal,
                );
            }
            bcs.push(b);
        }
        Self {
            zones,
            steppers,
            bcs,
            names,
        }
    }

    /// Zone names, as given by the grid description.
    #[must_use]
    pub fn zone_names(&self) -> &[String] {
        &self.names
    }

    /// Number of zones.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Immutable access to a zone's state.
    #[must_use]
    pub fn zone(&self, i: usize) -> &ZoneSolver {
        &self.zones[i]
    }

    /// Mutable access to a zone's state (for initial conditions).
    pub fn zone_mut(&mut self, i: usize) -> &mut ZoneSolver {
        &mut self.zones[i]
    }

    /// One time step, pure loop-level parallelism: zones stepped one
    /// after another, all workers inside each zone's loops, with the
    /// per-kernel scheduling overrides of `schedules` threaded to every
    /// zone's stepper (see [`RiscStepper::step`]). The serial `inject`
    /// kernel has no parallel region and takes no override.
    pub fn step_loop_level(&mut self, workers: &Workers, schedules: Option<&llp::ScheduleMap>) {
        let rec = workers.recorder().clone();
        let _step = rec.span("step", SpanKind::Step);
        for (i, (zone, stepper)) in self.zones.iter_mut().zip(&mut self.steppers).enumerate() {
            let _zone = rec.span(&self.names[i], SpanKind::Zone);
            stepper.step(zone, &self.bcs[i], workers, schedules);
        }
        // The serial inject kernel: one span over every exchange, and
        // an empty one for a single zone, so the report shape is
        // zone-count-invariant.
        let _inject = rec.span("inject", SpanKind::Kernel);
        inject_chain(&mut self.zones);
    }

    /// One time step as one [`llp::zones::run_sharded`] region: each
    /// zone's stepper is one task of a `shards`-wide region of `pool`'s
    /// worker team, its loops running on the whole pool and taking
    /// whichever helpers the other zones leave free; zonal injection is
    /// applied after the step barrier in chain order. Numerically
    /// bit-identical to [`MultiZoneSolver::step_loop_level`] for every
    /// shard count — the sequential sweep is the 1-shard degenerate
    /// case. Returns the shard count clamped to `1..=zone_count()`.
    ///
    /// Zone occupancy events land on `pool`'s flight recorder (lane =
    /// the team lane that stepped the zone, `step` in the event's
    /// region field); span recording is off inside the zones, so this
    /// path trades the per-kernel span tree for zone-level concurrency.
    pub fn step_zone_parallel(
        &mut self,
        pool: &Workers,
        shards: usize,
        schedules: Option<&llp::ScheduleMap>,
        step: u64,
    ) -> usize {
        let bcs = &self.bcs;
        let mut blocks: Vec<(&mut ZoneSolver, &mut RiscStepper)> = self
            .zones
            .iter_mut()
            .zip(self.steppers.iter_mut())
            .collect();
        let shards = llp::zones::run_sharded(
            pool,
            shards,
            step,
            &mut blocks,
            |i, loops, (zone, stepper)| stepper.step(zone, &bcs[i], loops, schedules),
        );
        inject_chain(&mut self.zones);
        shards
    }

    /// Maximum freestream deviation over all zones.
    #[must_use]
    pub fn freestream_deviation(&self) -> f64 {
        self.zones
            .iter()
            .map(ZoneSolver::freestream_deviation)
            .fold(0.0, f64::max)
    }

    /// Maximum pointwise difference against another solver with the
    /// same zone structure.
    ///
    /// # Panics
    /// Panics on a zone-count mismatch.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.zones.len(), other.zones.len());
        self.zones
            .iter()
            .zip(&other.zones)
            .map(|(a, b)| a.q.max_abs_diff(&b.q))
            .fold(0.0, f64::max)
    }
}

/// The chain's exchanges in order — `bc::inject` of zones `0→1`,
/// `1→2`, … — after every zone has stepped. Adjacent exchanges share a
/// zone, so this is the one order there is.
fn inject_chain(zones: &mut [ZoneSolver]) {
    for i in 1..zones.len() {
        let (up, down) = zones.split_at_mut(i);
        bc::inject(&mut up[i - 1], &mut down[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::Ijk;

    fn perturbed(config: SolverConfig) -> MultiZoneSolver {
        let grid = MultiZoneGrid::small_test_case();
        let mut s = MultiZoneSolver::from_grid(&grid, config, 0.3);
        for zi in 0..s.zone_count() {
            let zone = s.zone_mut(zi);
            for p in zone.dims().iter_jkl() {
                let mut q = zone.q.get(p);
                q[0] *= 1.0 + 0.01 * ((p.j + 2 * p.k + 3 * p.l + zi) as f64).sin();
                zone.q.set(p, q);
            }
        }
        s
    }

    #[test]
    fn zone_parallel_records_zone_occupancy() {
        let mut s = perturbed(SolverConfig::supersonic());
        let mut pool = Workers::new(2);
        pool.set_flight(llp::FlightRecorder::enabled(2, 256));
        s.step_zone_parallel(&pool, 2, None, 0);
        let timeline = pool.flight().take_timeline();
        let zones: usize = timeline
            .lanes
            .iter()
            .flat_map(|l| &l.events)
            .filter(|e| e.kind() == llp::obs::EventKind::Zone)
            .count();
        assert_eq!(zones, 3, "one zone interval per zone");

        // More shards than workers: every zone task still lands, on one
        // of the two team lanes that ran it.
        let grid = MultiZoneGrid::split_j(mesh::Dims::new(20, 12, 10), 4);
        let mut s = MultiZoneSolver::from_grid(&grid, SolverConfig::supersonic(), 0.3);
        pool.set_flight(llp::FlightRecorder::enabled(2, 256));
        for step in 0..10 {
            s.step_zone_parallel(&pool, 4, None, step);
        }
        let timeline = pool.flight().take_timeline();
        let mut seen = std::collections::BTreeMap::new();
        for (lane, l) in timeline.lanes.iter().enumerate() {
            for e in &l.events {
                if e.kind() != llp::obs::EventKind::Zone {
                    continue;
                }
                assert!(lane < 2, "lane {lane}");
                assert!(e.start_ns <= e.end_ns, "{e:?}");
                *seen.entry((e.region(), e.arg)).or_insert(0) += 1;
            }
        }
        assert_eq!(seen.len(), 40, "every zone task of every step");
        assert!(seen.values().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn zonal_injection_propagates_downstream() {
        let config = SolverConfig::supersonic();
        let mut s = perturbed(config);
        // Mark a point on the upstream zone's exchange plane.
        let d0 = s.zone(0).dims();
        let marked = [1.3, 2.0, 0.0, 0.0, 7.0];
        s.zone_mut(0).q.set(Ijk::new(d0.j - 2, 3, 3), marked);
        let workers = Workers::new(2);
        s.step_loop_level(&workers, None);
        // After a step + injection, the downstream zone's J=0 plane
        // carries the (evolved) upstream plane — at minimum, not
        // freestream at the marked location.
        let down = s.zone(1).q.get(Ijk::new(0, 3, 3));
        let fs = config.flow.conserved();
        assert!(
            (down[0] - fs[0]).abs() > 1e-6,
            "injection did not propagate"
        );
    }

    #[test]
    fn multizone_run_stays_physical_and_decays() {
        let mut s = perturbed(SolverConfig::supersonic());
        let workers = Workers::new(2);
        let initial = s.freestream_deviation();
        for _ in 0..20 {
            s.step_loop_level(&workers, None);
        }
        // from_conserved() panics on unphysical states.
        for zi in 0..s.zone_count() {
            for p in s.zone(zi).dims().iter_jkl() {
                let _ = crate::state::Primitive::from_conserved(&s.zone(zi).q.get(p));
            }
        }
        // With outflow/wall BCs the steady state need not be exactly
        // freestream; stability means the deviation stays bounded.
        assert!(s.freestream_deviation() < 5.0 * initial);
    }

    #[test]
    fn recorded_step_builds_zone_hierarchy() {
        let mut s = perturbed(SolverConfig::supersonic());
        let workers = Workers::recorded(2);
        s.step_loop_level(&workers, None);
        let report = workers.recorder().take_report("multizone", 2);
        assert_eq!(report.spans.len(), 1);
        let step = &report.spans[0];
        assert_eq!(step.kind, llp::SpanKind::Step);
        // 3 zone spans + the serial inject kernel.
        assert_eq!(step.children.len(), 4);
        let zone_names: Vec<&str> = step.children[..3].iter().map(|z| z.name.as_str()).collect();
        assert_eq!(
            zone_names,
            s.zone_names()
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        );
        assert_eq!(step.children[3].name, "inject");
        assert!(!step.children[3].parallelized());
        // 3 parallel regions per zone per step.
        assert_eq!(report.sync_events(), 9);
        // Every zone carries the full kernel set: three parallel, `bc`.
        for zone_span in &step.children[..3] {
            assert_eq!(zone_span.kind, llp::SpanKind::Zone);
            let names: Vec<&str> = zone_span.children.iter().map(|k| k.name.as_str()).collect();
            assert_eq!(names, ["rhs_jk", "l_factor_solve", "update", "bc"]);
        }
    }
}
