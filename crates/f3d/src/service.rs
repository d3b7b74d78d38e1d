//! A bounded, service-sized solver entry point.
//!
//! The `llpd` HTTP service exposes F3D runs to untrusted callers, so it
//! needs an entry point with a hard ceiling on the work one request can
//! ask for. [`ServiceCase`] is that contract: a J-chained multi-zone
//! grid of fixed transverse extent, with zone count, step count and
//! worker count validated against small caps before anything is
//! allocated. [`run`] executes the case on a caller-supplied pool
//! (typically a [`Workers::sized_view`] of a service's shared pool) and
//! returns everything a response needs: the residual history, the
//! integrated wall forces, a per-zone [`FieldChecksum`] — the paper's
//! Section 6 "diff" primitive, which lets a client verify a served run
//! against a local one bit-for-bit — and the observability report.
//!
//! Determinism is the point: two [`run`]s of the same case produce
//! identical histories and checksums regardless of worker count, so
//! equality (not tolerance) is the correct cross-invocation test.

use crate::bc::Face;
use crate::forces::{self, SurfaceForces};
use crate::multizone::MultiZoneSolver;
use crate::solver::SolverConfig;
use crate::validation::{FieldChecksum, ResidualHistory};
use llp::obs::json::Json;
use llp::{Policy, Workers};
use mesh::{Axis, Dims, MultiZoneGrid};
use solver::wire::{self, SolveFields};
use solver::{
    check_range, validate_width, Solver, SolverInstance, SolverOutput, SolverRun, SolverSpec,
    WidthMap, ZoneDispatch, MAX_CHUNK, MAX_WORKERS,
};

pub use solver::fnv1a64;

/// Maximum zones a service case may request.
pub const MAX_ZONES: usize = 4;
/// Maximum time steps a service case may request.
pub const MAX_STEPS: usize = 32;

/// What [`F3dSolver::memory_usage_estimate`] charges per worker for
/// its scratch — the fused `rhs_jk` region's J-row buffer and pencil
/// bundle (a bound, checked against the real scratch of every service
/// grid in this module's tests).
const SCRATCH_PER_WORKER: u64 = 64 * 1024;

/// Transverse (K × L) extent of the service grid; the J extent before
/// zonal splitting. Small enough that a maximal case stays well under a
/// second.
const SERVICE_DIMS: Dims = Dims {
    j: 16,
    k: 12,
    l: 10,
};

/// Zone-level scheduling for a service case: which parallelism level
/// carries the zones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ZoneSchedule {
    /// Zones stepped one after another, every worker inside each
    /// zone's doacross loops — the classic loop-level-only mode.
    #[default]
    Sequential,
    /// Zones dispatched across this many zone shards per step as one
    /// [`llp::zones`] region, the team shared between the zone level
    /// and the loop level (`U_zones × U_loops`). Shard counts are
    /// clamped to the zone count at runtime; validation bounds them by
    /// [`MAX_ZONES`].
    Zones(usize),
}

/// A validated request for one bounded solver run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceCase {
    /// Number of J-chained zones (1..=[`MAX_ZONES`]).
    pub zones: usize,
    /// Number of time steps (1..=[`MAX_STEPS`]).
    pub steps: usize,
    /// Worker count to run with (1..=[`MAX_WORKERS`]).
    pub workers: usize,
    /// Chunk-scheduling policy for the run's doacross regions
    /// ([`Policy::Static`] unless the request selects otherwise; chunk
    /// parameters are capped at [`MAX_CHUNK`]).
    pub schedule: Policy,
    /// Zone-level scheduling mode (sequential unless the request
    /// selects zone shards). Results are bit-exact across every mode —
    /// pinned by tests — so this is purely a performance knob.
    pub zone_schedule: ZoneSchedule,
    /// Requested SLP lane width (one of [`solver::SUPPORTED_WIDTHS`]).
    /// No F3D kernel reads it — the residual's lanes and the factors'
    /// bundle are constants — so every width gives the same bytes; it
    /// stays in the label and the canonical string.
    pub vector_width: usize,
}

impl ServiceCase {
    /// The grid this case solves on.
    #[must_use]
    pub fn grid(&self) -> MultiZoneGrid {
        MultiZoneGrid::split_j(SERVICE_DIMS, self.zones)
    }
}

impl SolverSpec for ServiceCase {
    fn kind(&self) -> &'static str {
        F3dSolver::KIND
    }

    fn validate(&self) -> Result<(), String> {
        check_range("zones", self.zones, MAX_ZONES)?;
        check_range("steps", self.steps, MAX_STEPS)?;
        check_range("workers", self.workers, MAX_WORKERS)?;
        if let ZoneSchedule::Zones(shards) = self.zone_schedule {
            check_range("zone_shards", shards, MAX_ZONES)?;
        }
        validate_width(self.vector_width)?;
        match self.schedule.chunk_param() {
            None => Ok(()),
            Some(chunk) => check_range("chunk", chunk, MAX_CHUNK),
        }
    }

    /// Every semantic field in a fixed order with a fixed spelling, so
    /// two requests that parse to the same case — whatever their JSON
    /// key order or whitespace — produce byte-identical canonical
    /// strings, and any change to zones, steps, workers, schedule kind,
    /// chunk parameter, or vector width changes the string.
    /// `vector_width` always appears — explicitly, even at the scalar
    /// default — so a request spelling `"vector_width": 1` and one
    /// omitting the field canonicalize identically.
    fn canonical_string(&self) -> String {
        let schedule = self.schedule.canonical();
        let zone_schedule = match self.zone_schedule {
            ZoneSchedule::Sequential => "sequential".to_string(),
            ZoneSchedule::Zones(shards) => format!("zones,shards={shards}"),
        };
        format!(
            "zones={};steps={};workers={};schedule={};zone_schedule={};vector_width={}",
            self.zones, self.steps, self.workers, schedule, zone_schedule, self.vector_width
        )
    }

    /// Static runs keep the original `service/z{}s{}w{}` form; dynamic
    /// policies append a `-dyn{chunk}` / `-gui{min_chunk}` suffix so a
    /// self-scheduled run is never mistaken for a static one, and wide
    /// runs append a final `-vw{width}` so a SIMD-variant run is never
    /// mistaken for a scalar one.
    fn label(&self) -> String {
        let schedule = self.schedule.label_suffix();
        let base = format!(
            "service/z{}s{}w{}{schedule}",
            self.zones, self.steps, self.workers
        );
        let base = match self.zone_schedule {
            ZoneSchedule::Sequential => base,
            ZoneSchedule::Zones(shards) => format!("{base}-zp{shards}"),
        };
        if self.vector_width > 1 {
            format!("{base}-vw{}", self.vector_width)
        } else {
            base
        }
    }

    fn workers(&self) -> usize {
        self.workers
    }
    fn schedule(&self) -> Policy {
        self.schedule
    }
    fn steps(&self) -> usize {
        self.steps
    }
    fn vector_width(&self) -> usize {
        self.vector_width
    }

    fn memory_usage_estimate(&self) -> u64 {
        // Two full conservative-state fields per zone, 5 components of
        // f64 per point: the zone's Q and the stepper's RHS, which is
        // all a `RiscStepper` holds (the implicit factors solve in
        // place). The grid metrics need no term: a service zone is
        // Cartesian, and `Metrics::cartesian` stores its ten terms as
        // ten numbers, not ten fields. The pencil scratch is per worker
        // and cache-sized by design. A deterministic formula, not a
        // measurement; `serve`'s count table (`tests/counts.rs`) checks
        // that every case it serves holds, and unrecorded peaks, within
        // it.
        let points: usize = self
            .grid()
            .zones()
            .iter()
            .map(|z| {
                let d = z.dims;
                d.j * d.k * d.l
            })
            .sum();
        const NCONS: u64 = 5;
        const F64: u64 = 8;
        (points as u64) * NCONS * F64 * 2 + (self.workers as u64) * SCRATCH_PER_WORKER
    }

    fn echo(&self) -> Json {
        let zone_schedule = match self.zone_schedule {
            ZoneSchedule::Sequential => Json::str("sequential"),
            ZoneSchedule::Zones(shards) => Json::from_usize(shards),
        };
        wire::echo(
            self,
            ("zones", self.zones),
            vec![("zone_schedule", zone_schedule)],
        )
    }

    /// Omitted fields fall back to a small default case: three zones,
    /// stepped sequentially.
    fn from_request(fields: &SolveFields<'_>) -> Result<Self, String> {
        let zone_schedule = match fields.body.get("zone_schedule") {
            None => ZoneSchedule::Sequential,
            Some(v) => match (v.as_str(), v.as_usize()) {
                (Some("sequential"), _) => ZoneSchedule::Sequential,
                (None, Some(shards)) => ZoneSchedule::Zones(shards),
                _ => {
                    return Err(
                        "`zone_schedule` must be \"sequential\" or a positive shard count"
                            .to_string(),
                    )
                }
            },
        };
        Ok(Self {
            zones: fields.count("zones", 3)?,
            steps: fields.steps()?,
            workers: fields.workers()?,
            schedule: fields.schedule,
            zone_schedule,
            vector_width: fields.vector_width()?,
        })
    }

    /// `scale` zones × `steps` at the default configuration (static,
    /// sequential zones, scalar).
    fn calibration(scale: usize, steps: usize, workers: usize) -> Self {
        Self {
            zones: scale,
            steps,
            workers,
            schedule: Policy::Static,
            zone_schedule: ZoneSchedule::Sequential,
            vector_width: 1,
        }
    }
}

/// The F3D flow workload as a [`solver::Solver`]: the marker type the
/// generic run driver and the serving layer dispatch on.
pub struct F3dSolver;

/// One allocated F3D solve: the multi-zone state plus the per-step
/// residual history and the zone shard count the output carries.
pub struct F3dInstance {
    case: ServiceCase,
    solver: MultiZoneSolver,
    residuals: ResidualHistory,
    zone_shards: Option<usize>,
    processors: usize,
}

/// The physics half of a completed F3D run — everything
/// [`ServiceRun`] carries except the case and the uniform
/// observability payload.
#[derive(Debug, Clone)]
pub struct F3dOutput {
    /// Zone names, in grid order.
    pub zone_names: Vec<String>,
    /// Freestream deviation after each step.
    pub residuals: Vec<f64>,
    /// Drag coefficient on the low-L wall faces.
    pub drag: f64,
    /// Lift coefficient on the low-L wall faces.
    pub lift: f64,
    /// Per-zone field checksums after the final step.
    pub checksums: Vec<FieldChecksum>,
    /// Zone shards each step dispatched over, clamped to the zone count
    /// (`None` for sequential zone order).
    pub zone_shards: Option<usize>,
    /// Width of the view the run stepped on.
    pub processors: usize,
}

impl SolverOutput for F3dOutput {
    /// `zone_level`, `residuals`, `forces`, and one [`FieldChecksum`]
    /// per zone — the paper's Section 6 "diff" primitive.
    /// `zone_level` (`null` for sequential zone order) is worked out
    /// from the case, so cached responses carry it soundly: each of the
    /// `n` zones gets an even share of the view as its `loop_workers`,
    /// all `n` are ready at once, and the `n − 1` exchanges each wait
    /// for the one before.
    fn payload(&self) -> Vec<(&'static str, Json)> {
        let nums = |v: &[f64]| Json::Array(v.iter().map(|&x| Json::Num(x)).collect());
        let (zones, num) = (self.zone_names.len(), Json::from_usize);
        let zone_level = self.zone_shards.map_or(Json::Null, |shards| {
            Json::object(vec![
                ("shards", num(shards)),
                ("loop_workers", num((self.processors / shards).max(1))),
                ("zone_tasks", num(zones)),
                ("exchange_tasks", num(zones - 1)),
                ("exchange_waves", num(zones - 1)),
                ("peak_ready", num(zones)),
            ])
        });
        let checksums = self
            .zone_names
            .iter()
            .zip(&self.checksums)
            .map(|(zone, sum)| {
                Json::object(vec![
                    ("zone", Json::str(zone)),
                    ("sum", nums(&sum.sum)),
                    ("sum_sq", nums(&sum.sum_sq)),
                    ("min", nums(&sum.min)),
                    ("max", nums(&sum.max)),
                ])
            })
            .collect();
        vec![
            ("zone_level", zone_level),
            ("residuals", nums(&self.residuals)),
            (
                "forces",
                Json::object(vec![
                    ("drag", Json::Num(self.drag)),
                    ("lift", Json::Num(self.lift)),
                ]),
            ),
            ("checksums", Json::Array(checksums)),
        ]
    }

    fn zone_dispatch(&self) -> Option<ZoneDispatch> {
        // One task per zone per step, one residual per step.
        let zones = self.zone_names.len() as u64;
        self.zone_shards.map(|shards| ZoneDispatch {
            shards: shards as u64,
            zone_tasks: zones * self.residuals.len() as u64,
            peak_ready: zones,
        })
    }
}

impl Solver for F3dSolver {
    type Config = ServiceCase;
    type Instance = F3dInstance;

    const KIND: &'static str = "f3d";

    // The three parallel regions of the RISC stepper, sorted: the
    // vocabulary the tune database and the metrics labels use. The
    // model's rhs, J and K loops run as one fused region, `rhs_jk`. The
    // serial `bc` phase is deliberately absent: it is never tuned and
    // the metrics fold it into "other". A tune database written before
    // the fusion (naming `rhs`, `j_factor`, `k_factor`) or while the L
    // factor still had a scatter region (naming that kernel) still
    // loads; those entries select nothing.
    const KERNELS: &'static [&'static str] = &["l_factor_solve", "rhs_jk", "update"];

    const OWN_FIELDS: &'static [&'static str] = &["zones", "zone_schedule"];

    /// The width map is ignored: no F3D kernel reads a width. The
    /// residual runs a fixed [`crate::solver::RESIDUAL_LANES`] points
    /// of a J-row per group, the implicit factors a fixed bundle of
    /// [`crate::solver::PENCIL_BUNDLE`] pencils, and `update` is data
    /// movement.
    fn create_instance(case: &ServiceCase, _widths: &WidthMap) -> F3dInstance {
        let grid = case.grid();
        let config = SolverConfig::supersonic();
        let mut solver = MultiZoneSolver::from_grid(&grid, config, 0.3);

        // Deterministic perturbed initial condition — without it every
        // field stays exactly freestream and the checksums test
        // nothing.
        for zi in 0..solver.zone_count() {
            let zone = solver.zone_mut(zi);
            for p in zone.dims().iter_jkl() {
                let mut q = zone.q.get(p);
                q[0] *= 1.0 + 0.01 * ((p.j + 2 * p.k + 3 * p.l + zi) as f64).sin();
                zone.q.set(p, q);
            }
        }
        F3dInstance {
            case: *case,
            solver,
            residuals: ResidualHistory::new(),
            zone_shards: None,
            processors: 0,
        }
    }
}

impl SolverInstance for F3dInstance {
    type Output = F3dOutput;

    fn step(&mut self, pool: &Workers, step: usize, schedules: Option<&llp::ScheduleMap>) {
        self.processors = pool.processors();
        match self.case.zone_schedule {
            ZoneSchedule::Sequential => self.solver.step_loop_level(pool, schedules),
            ZoneSchedule::Zones(shards) => {
                self.zone_shards =
                    Some(
                        self.solver
                            .step_zone_parallel(pool, shards, schedules, step as u64),
                    );
            }
        }
        self.residuals.push(self.solver.freestream_deviation());
    }

    fn finish(self) -> F3dOutput {
        let solver = &self.solver;
        // Wall observable: pressure force summed over every zone's
        // low-L face, normalized by the total wall area.
        let wall = Face {
            axis: Axis::L,
            high: false,
        };
        let mut total = SurfaceForces {
            force: [0.0; 3],
            area: 0.0,
        };
        for zi in 0..solver.zone_count() {
            let f = forces::pressure_force(solver.zone(zi), wall);
            for c in 0..3 {
                total.force[c] += f.force[c];
            }
            total.area += f.area;
        }
        let (drag, lift) = total.drag_lift(solver.zone(0), total.area);

        let checksums = (0..solver.zone_count())
            .map(|zi| FieldChecksum::of(&solver.zone(zi).q))
            .collect();

        F3dOutput {
            zone_names: solver.zone_names().to_vec(),
            residuals: self.residuals.values,
            drag,
            lift,
            checksums,
            zone_shards: self.zone_shards,
            processors: self.processors,
        }
    }
}

/// Everything one bounded run produces: the case, its [`F3dOutput`],
/// and the observability payload (sync events, span report, flight
/// timeline — the last with zone occupancy events when the case ran
/// zone-scheduled).
pub type ServiceRun = SolverRun<ServiceCase, F3dOutput>;

/// Execute a validated case on `pool` and collect the results.
///
/// The run is deterministic in `(zones, steps)`: the initial condition
/// is a fixed pseudo-random perturbation of the freestream, and the
/// solver's numerics are worker-count-invariant, so checksum equality
/// across invocations (local vs. served) is exact.
///
/// When the pool records spans, the report covering exactly this run is
/// drained from the recorder — the caller must not have open spans.
///
/// This is [`solver::run_instrumented`] with no per-kernel overrides;
/// the `"schedule": "auto"` path calls the driver with a tune
/// database's schedule map.
///
/// # Errors
/// Returns the [`SolverSpec::validate`] error for out-of-bounds cases.
pub fn run(case: &ServiceCase, pool: &Workers) -> Result<ServiceRun, String> {
    solver::run_instrumented::<F3dSolver>(case, pool, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_estimate_covers_the_real_worker_scratch() {
        // The admission formula charges a flat amount per worker; the
        // scratch a worker really allocates (the fused region's J-row
        // buffer and pencil bundle), on every grid a case can ask for,
        // must fit inside it.
        for zones in 1..=MAX_ZONES {
            for zone in MultiZoneGrid::split_j(SERVICE_DIMS, zones).zones() {
                let (_, stepper) = crate::risc_impl::RiscStepper::new_zone(
                    SolverConfig::supersonic(),
                    mesh::Metrics::cartesian(zone.dims, (0.3, 0.3, 0.3)),
                );
                let real = stepper.scratch_bytes_per_worker() as u64;
                assert!(
                    real <= SCRATCH_PER_WORKER,
                    "{zones} zones, {:?}: {real} B of scratch per worker",
                    zone.dims
                );
            }
        }
    }

    #[test]
    fn validation_enforces_caps() {
        let ok = ServiceCase::calibration(3, 4, 2);
        assert!(ok.validate().is_ok());
        assert!(ServiceCase {
            schedule: Policy::Dynamic { chunk: MAX_CHUNK },
            ..ok
        }
        .validate()
        .is_ok());
        for bad in [
            ServiceCase { zones: 0, ..ok },
            ServiceCase {
                zones: MAX_ZONES + 1,
                ..ok
            },
            ServiceCase { steps: 0, ..ok },
            ServiceCase {
                steps: MAX_STEPS + 1,
                ..ok
            },
            ServiceCase { workers: 0, ..ok },
            ServiceCase {
                workers: MAX_WORKERS + 1,
                ..ok
            },
            ServiceCase {
                schedule: Policy::Dynamic { chunk: 0 },
                ..ok
            },
            ServiceCase {
                schedule: Policy::Guided {
                    min_chunk: MAX_CHUNK + 1,
                },
                ..ok
            },
            ServiceCase {
                zone_schedule: ZoneSchedule::Zones(0),
                ..ok
            },
            ServiceCase {
                zone_schedule: ZoneSchedule::Zones(MAX_ZONES + 1),
                ..ok
            },
        ] {
            let err = bad.validate().unwrap_err();
            assert!(err.contains("must be in 1..="), "{err}");
            assert!(run(&bad, &Workers::serial()).is_err());
        }
        // Widths have their own vocabulary error (not a 1..=max range).
        for w in [0, 3, 5, 16] {
            let bad = ServiceCase {
                vector_width: w,
                ..ok
            };
            let err = bad.validate().unwrap_err();
            assert!(err.contains("vector_width must be one of"), "{err}");
            assert!(run(&bad, &Workers::serial()).is_err());
        }
        for w in solver::SUPPORTED_WIDTHS {
            assert!(ServiceCase {
                vector_width: w,
                ..ok
            }
            .validate()
            .is_ok());
        }
    }

    #[test]
    fn canonical_strings_cover_every_semantic_field() {
        let base = ServiceCase::calibration(2, 3, 4);
        assert_eq!(
            base.canonical_string(),
            "zones=2;steps=3;workers=4;schedule=static;zone_schedule=sequential;vector_width=1"
        );
        assert_eq!(
            ServiceCase {
                schedule: Policy::Dynamic { chunk: 5 },
                ..base
            }
            .canonical_string(),
            "zones=2;steps=3;workers=4;schedule=dynamic,chunk=5;zone_schedule=sequential;vector_width=1"
        );
        assert_eq!(
            ServiceCase {
                schedule: Policy::Guided { min_chunk: 2 },
                ..base
            }
            .canonical_string(),
            "zones=2;steps=3;workers=4;schedule=guided,chunk=2;zone_schedule=sequential;vector_width=1"
        );
        assert_eq!(
            ServiceCase {
                zone_schedule: ZoneSchedule::Zones(2),
                ..base
            }
            .canonical_string(),
            "zones=2;steps=3;workers=4;schedule=static;zone_schedule=zones,shards=2;vector_width=1"
        );
        assert_eq!(
            ServiceCase {
                vector_width: 4,
                ..base
            }
            .canonical_string(),
            "zones=2;steps=3;workers=4;schedule=static;zone_schedule=sequential;vector_width=4"
        );
        // Every single-field change moves the canonical string.
        let variants = [
            ServiceCase { zones: 3, ..base },
            ServiceCase { steps: 4, ..base },
            ServiceCase { workers: 2, ..base },
            ServiceCase {
                schedule: Policy::Dynamic { chunk: 1 },
                ..base
            },
            ServiceCase {
                schedule: Policy::Dynamic { chunk: 2 },
                ..base
            },
            ServiceCase {
                schedule: Policy::Guided { min_chunk: 1 },
                ..base
            },
            ServiceCase {
                zone_schedule: ZoneSchedule::Zones(1),
                ..base
            },
            ServiceCase {
                zone_schedule: ZoneSchedule::Zones(2),
                ..base
            },
            ServiceCase {
                vector_width: 2,
                ..base
            },
            ServiceCase {
                vector_width: 8,
                ..base
            },
        ];
        for v in &variants {
            assert_ne!(v.canonical_string(), base.canonical_string(), "{:?}", v);
            assert_ne!(v.label(), base.label(), "{:?}", v);
        }
        // Identical cases canonicalize identically (pure function of fields).
        assert_eq!(base.canonical_string(), { base }.canonical_string());

        // A static scalar run keeps the plain label; a self-scheduled,
        // wide or zone-sharded one says so.
        let case = ServiceCase::calibration(2, 3, 2);
        assert_eq!(case.label(), "service/z2s3w2");
        let guided = ServiceCase {
            schedule: Policy::Guided { min_chunk: 2 },
            ..case
        };
        assert_eq!(guided.label(), "service/z2s3w2-gui2");
        for width in [2, 4, 8] {
            let wide = ServiceCase {
                vector_width: width,
                ..case
            };
            assert_eq!(wide.label(), format!("service/z2s3w2-vw{width}"));
        }
        let zoned = ServiceCase {
            zone_schedule: ZoneSchedule::Zones(2),
            ..ServiceCase::calibration(MAX_ZONES, 3, 4)
        };
        assert_eq!(zoned.label(), "service/z4s3w4-zp2");
    }

    #[test]
    fn flight_instrumented_run_carries_a_timeline() {
        let case = ServiceCase::calibration(2, 2, 2);
        let mut pool = Workers::recorded(2);
        pool.set_flight(llp::FlightRecorder::enabled(2, 4096));
        let out = run(&case, &pool).unwrap();
        // One region mark per sync event: the flight recorder and the
        // pool counter are two views of the same regions.
        assert!(!out.timeline.is_empty());
        assert_eq!(out.timeline.regions.len() as u64, out.sync_events);
        // The drain covers exactly one run: a second run re-numbers
        // regions from zero.
        let again = run(&case, &pool).unwrap();
        assert_eq!(again.timeline.regions[0].seq, 0);
        // A pool without a flight recorder yields an empty timeline
        // (disabled explicitly: `LLP_FLIGHT=1` gives every new pool one).
        let mut plain_pool = Workers::new(2);
        plain_pool.set_flight(llp::FlightRecorder::disabled());
        let plain = run(&case, &plain_pool).unwrap();
        assert!(plain.timeline.is_empty());
    }

    #[test]
    fn oversubscribed_runs_surface_the_clamp() {
        let case = ServiceCase::calibration(2, 1, MAX_WORKERS);
        let pool = Workers::recorded(2);
        let out = run(&case, &pool.sized_view(case.workers)).unwrap();
        // The view clamps to the base pool's width, and the report says
        // both what ran and what was asked for.
        assert_eq!(out.report.workers, 2);
        assert_eq!(out.report.requested_workers, Some(MAX_WORKERS));
        // A non-clamped run stays silent.
        let exact = run(&ServiceCase { workers: 2, ..case }, &pool.sized_view(2)).unwrap();
        assert_eq!(exact.report.requested_workers, None);
    }

    #[test]
    fn recorded_run_reports_its_sync_events() {
        let case = ServiceCase::calibration(2, 2, 2);
        let pool = Workers::recorded(4);
        let out = run(&case, &pool.sized_view(case.workers)).unwrap();
        assert!(out.sync_events > 0);
        assert_eq!(out.report.sync_events(), out.sync_events);
        assert_eq!(out.report.case, case.label());
        // The run's events accumulated on the shared pool.
        assert_eq!(pool.sync_event_count(), out.sync_events);
        // Back-to-back runs drain cleanly: the second report only
        // covers the second run.
        let again = run(&case, &pool.sized_view(case.workers)).unwrap();
        assert_eq!(again.report.sync_events(), again.sync_events);
        assert_eq!(pool.sync_event_count(), 2 * out.sync_events);
    }
}
