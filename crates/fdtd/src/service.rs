//! Bounded, validated FDTD solves for the serving layer — the same
//! contract [`f3d::service`] exposes, implemented over the generic
//! [`solver::Solver`] driver.

use crate::grid::{fold_energy, Boundary, FieldChecksum, TezGrid};
use crate::kernels;
use llp::obs::json::Json;
use llp::{Policy, ScheduleMap, SpanKind, Workers};
use solver::wire::{self, SolveFields};
use solver::{
    check_range, validate_width, Solver, SolverInstance, SolverOutput, SolverRun, SolverSpec,
    WidthMap,
};

/// Smallest served grid edge: below this the doacross rows cannot
/// cover even a modest worker count and the case tests nothing.
pub const MIN_SIZE: usize = 8;
/// Largest served grid edge (`size × size` points), keeping a maximal
/// case well under a second.
pub const MAX_SIZE: usize = 128;
/// Largest served step count.
pub const MAX_STEPS: usize = 64;
/// Largest served worker count (matches the F3D service cap).
pub const MAX_WORKERS: usize = 64;
/// Largest chunk / min-chunk parameter a schedule may carry.
pub const MAX_CHUNK: usize = 1024;

/// Courant number every served case runs at — safely inside the 2-D
/// stability bound `1/√2` and pinned so cached results never depend on
/// an ambient default.
pub const SERVICE_COURANT: f64 = 0.5;

/// A validated request for one bounded FDTD run: a `size × size` PEC
/// cavity excited by the deterministic center source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdtdCase {
    /// Grid edge in points ([`MIN_SIZE`]..=[`MAX_SIZE`]; the domain is
    /// `size × size`).
    pub size: usize,
    /// Number of leapfrog steps (1..=[`MAX_STEPS`]).
    pub steps: usize,
    /// Worker count to run with (1..=[`MAX_WORKERS`]).
    pub workers: usize,
    /// Chunk-scheduling policy for the two doacross sweeps
    /// ([`Policy::Static`] unless the request selects otherwise; chunk
    /// parameters are capped at [`MAX_CHUNK`]).
    pub schedule: Policy,
    /// Requested SLP lane width (one of [`solver::SUPPORTED_WIDTHS`]):
    /// validated, echoed, labelled and cache-keyed like F3D's, and read
    /// by nothing else — each update sweep is one plain loop (see
    /// [`crate::kernels`]).
    pub vector_width: usize,
}

impl SolverSpec for FdtdCase {
    fn kind(&self) -> &'static str {
        FdtdSolver::KIND
    }

    fn validate(&self) -> Result<(), String> {
        if !(MIN_SIZE..=MAX_SIZE).contains(&self.size) {
            return Err(format!(
                "size must be in {MIN_SIZE}..={MAX_SIZE}, got {}",
                self.size
            ));
        }
        check_range("steps", self.steps, MAX_STEPS)?;
        check_range("workers", self.workers, MAX_WORKERS)?;
        validate_width(self.vector_width)?;
        match self.schedule.chunk_param() {
            None => Ok(()),
            Some(chunk) => check_range("chunk", chunk, MAX_CHUNK),
        }
    }

    /// Every semantic field in a fixed order with a fixed spelling
    /// (the schedule grammar shared with F3D), so equal cases
    /// canonicalize byte-identically whatever their JSON spelling, and
    /// `vector_width` always appears — explicitly, even at the scalar
    /// default.
    fn canonical_string(&self) -> String {
        let schedule = self.schedule.canonical();
        format!(
            "size={};steps={};workers={};schedule={};vector_width={}",
            self.size, self.steps, self.workers, schedule, self.vector_width
        )
    }

    /// Same suffix grammar as the F3D labels (`-dyn{chunk}` /
    /// `-gui{min}` / `-vw{width}`).
    fn label(&self) -> String {
        let schedule = self.schedule.label_suffix();
        let base = format!(
            "fdtd/n{}s{}w{}{schedule}",
            self.size, self.steps, self.workers
        );
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
        // Three scalar fields of f64 per point (Ex, Ey, Hz) dominate;
        // the pool's per-worker footprint for these kernels is a few
        // control words, budgeted generously. Deterministic by
        // construction — the admission contract only needs it to scale
        // with the request.
        const FIELDS: u64 = 3;
        const F64: u64 = 8;
        const PER_WORKER: u64 = 4096;
        (self.size as u64) * (self.size as u64) * FIELDS * F64 + (self.workers as u64) * PER_WORKER
    }

    fn echo(&self) -> Json {
        wire::echo(self, ("size", self.size), Vec::new())
    }

    /// An omitted `size` is a 16 × 16 cavity.
    fn from_request(fields: &SolveFields<'_>) -> Result<Self, String> {
        Ok(Self {
            size: fields.count("size", 16)?,
            steps: fields.steps()?,
            workers: fields.workers()?,
            schedule: fields.schedule,
            vector_width: fields.vector_width()?,
        })
    }

    /// `scale` sets the grid edge (`16 × scale` points), so one
    /// `/v1/tune` vocabulary drives every solver.
    fn calibration(scale: usize, steps: usize, workers: usize) -> Self {
        Self {
            size: 16 * scale,
            steps,
            workers,
            schedule: Policy::Static,
            vector_width: 1,
        }
    }
}

/// The FDTD Maxwell workload as a [`solver::Solver`]: the marker type
/// the generic run driver and the serving layer dispatch on.
pub struct FdtdSolver;

/// One allocated FDTD solve: the Yee-grid state, the per-row energy
/// partials the `update_e` region refills every step, and the per-step
/// energy history the output carries.
pub struct FdtdInstance {
    grid: TezGrid,
    row_energy: Vec<f64>,
    energy: Vec<f64>,
}

/// The physics half of a completed FDTD run.
#[derive(Debug, Clone)]
pub struct FdtdOutput {
    /// Total field energy after each step — the residual-history
    /// analogue (for a soft-sourced PEC cavity it rises during the
    /// pulse, then stays bounded). Each entry is
    /// [`TezGrid::energy`]'s value bit for bit — row partials folded in
    /// row order — at every worker count and schedule.
    pub energy: Vec<f64>,
    /// Per-field checksums (`ex`, `ey`, `hz`) after the final step.
    pub checksums: Vec<FieldChecksum>,
}

impl SolverOutput for FdtdOutput {
    /// The per-step energy history and one whole-field checksum per
    /// field (`ex`, `ey`, `hz`).
    fn payload(&self) -> Vec<(&'static str, Json)> {
        let checksums = self
            .checksums
            .iter()
            .map(|sum| {
                Json::object(vec![
                    ("field", Json::str(&sum.field)),
                    ("sum", Json::Num(sum.sum)),
                    ("sum_sq", Json::Num(sum.sum_sq)),
                    ("min", Json::Num(sum.min)),
                    ("max", Json::Num(sum.max)),
                ])
            })
            .collect();
        vec![
            (
                "energy",
                Json::Array(self.energy.iter().map(|&e| Json::Num(e)).collect()),
            ),
            ("checksums", Json::Array(checksums)),
        ]
    }
}

impl Solver for FdtdSolver {
    type Config = FdtdCase;
    type Instance = FdtdInstance;

    const KIND: &'static str = "fdtd";

    // The two parallel sweeps, sorted — the vocabulary the tune
    // database and the metrics labels use. The serial `source` phase
    // is deliberately absent, like F3D's `bc`.
    const KERNELS: &'static [&'static str] = &["update_e", "update_h"];

    const OWN_FIELDS: &'static [&'static str] = &["size"];

    const MAX_WORKERS: usize = self::MAX_WORKERS;

    fn create_instance(case: &FdtdCase, _widths: &WidthMap) -> FdtdInstance {
        FdtdInstance {
            grid: TezGrid::new(case.size, case.size, Boundary::PecBox, SERVICE_COURANT),
            row_energy: vec![0.0; case.size],
            energy: Vec::with_capacity(case.steps),
        }
    }
}

impl SolverInstance for FdtdInstance {
    type Output = FdtdOutput;

    fn step(&mut self, pool: &Workers, step: usize, schedules: Option<&ScheduleMap>) {
        let rec = pool.recorder();
        {
            let _span = rec.span("source", SpanKind::Kernel);
            self.grid.inject_soft_source(step);
        }
        {
            let _span = rec.span("update_h", SpanKind::Kernel);
            let kw = pool.scheduled_view(schedules, "update_h");
            kernels::update_h(&kw, &mut self.grid, 1);
        }
        {
            let _span = rec.span("update_e", SpanKind::Kernel);
            let kw = pool.scheduled_view(schedules, "update_e");
            kernels::update_e_energy(&kw, &mut self.grid, &mut self.row_energy);
        }
        self.energy
            .push(fold_energy(self.row_energy.iter().copied()));
    }

    fn finish(self) -> FdtdOutput {
        FdtdOutput {
            energy: self.energy,
            checksums: self.grid.checksums(),
        }
    }
}

/// Everything one bounded FDTD run produces: the case, its
/// [`FdtdOutput`], and the same observability payload as every solver.
pub type FdtdRun = SolverRun<FdtdCase, FdtdOutput>;

/// Execute a validated case on `pool` and collect the results.
///
/// Deterministic in `(size, steps)`: the source is a fixed Gaussian
/// pulse and the kernels are worker-count-invariant, so checksum
/// equality across invocations is exact.
///
/// This is [`solver::run_instrumented`] with no per-kernel overrides.
///
/// # Errors
/// Returns the [`SolverSpec::validate`] error for out-of-bounds cases.
pub fn run(case: &FdtdCase, pool: &Workers) -> Result<FdtdRun, String> {
    solver::run_instrumented::<FdtdSolver>(case, pool, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_case() -> FdtdCase {
        FdtdCase::calibration(1, 8, 2) // 16 × 16, static, scalar
    }

    #[test]
    fn validation_enforces_caps() {
        assert!(base_case().validate().is_ok());
        for (case, needle) in [
            (
                FdtdCase {
                    size: MIN_SIZE - 1,
                    ..base_case()
                },
                "size",
            ),
            (
                FdtdCase {
                    size: MAX_SIZE + 1,
                    ..base_case()
                },
                "size",
            ),
            (
                FdtdCase {
                    steps: MAX_STEPS + 1,
                    ..base_case()
                },
                "steps",
            ),
            (
                FdtdCase {
                    workers: 0,
                    ..base_case()
                },
                "workers",
            ),
            (
                FdtdCase {
                    vector_width: 3,
                    ..base_case()
                },
                "vector_width",
            ),
            (
                FdtdCase {
                    schedule: Policy::Dynamic {
                        chunk: MAX_CHUNK + 1,
                    },
                    ..base_case()
                },
                "chunk",
            ),
        ] {
            let err = case.validate().unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle}");
        }
    }

    #[test]
    fn canonical_string_is_fixed_and_total() {
        let case = FdtdCase {
            size: 32,
            steps: 4,
            workers: 3,
            schedule: Policy::Guided { min_chunk: 2 },
            vector_width: 4,
        };
        assert_eq!(
            case.canonical_string(),
            "size=32;steps=4;workers=3;schedule=guided,chunk=2;vector_width=4"
        );
        // The scalar default still spells its width.
        assert!(base_case().canonical_string().ends_with("vector_width=1"));
        assert_eq!(case.label(), "fdtd/n32s4w3-gui2-vw4");
        assert_eq!(base_case().label(), "fdtd/n16s8w2");
    }

    #[test]
    fn runs_are_deterministic_and_billed() {
        let pool = Workers::recorded(2);
        let a = run(&base_case(), &pool).unwrap();
        let b = run(&base_case(), &pool).unwrap();
        assert_eq!(a.output.checksums, b.output.checksums);
        assert_eq!(a.output.energy, b.output.energy);
        assert_eq!(a.output.energy.len(), base_case().steps);
        // Two doacross sweeps per step, each one synchronization.
        assert_eq!(a.sync_events, 2 * base_case().steps as u64);
        // The report carries all three spans under the case label.
        let spans: Vec<&str> = a.report.spans.iter().map(|s| s.name.as_str()).collect();
        for name in ["source", "update_h", "update_e"] {
            assert!(spans.contains(&name), "missing span {name}: {spans:?}");
        }
        assert_eq!(a.report.case, base_case().label());
    }

    #[test]
    fn tuned_overrides_never_change_results() {
        let pool = Workers::recorded(3);
        let reference = run(&base_case(), &pool).unwrap();

        let mut schedules = ScheduleMap::new();
        schedules.set("update_h", 2, Policy::Dynamic { chunk: 1 });
        schedules.set("update_e", 1, Policy::Static);
        let tuned =
            solver::run_instrumented::<FdtdSolver>(&base_case(), &pool, Some(&schedules)).unwrap();
        assert_eq!(tuned.output.checksums, reference.output.checksums);
        assert_eq!(tuned.output.energy, reference.output.energy);

        // The case-level width knob is equally inert on results.
        let wide = FdtdCase {
            vector_width: 4,
            ..base_case()
        };
        let wide_run = run(&wide, &pool).unwrap();
        assert_eq!(wide_run.output.checksums, reference.output.checksums);
    }

    #[test]
    fn memory_estimate_scales_with_the_request() {
        let small = base_case().memory_usage_estimate();
        let big = FdtdCase {
            size: MAX_SIZE,
            ..base_case()
        }
        .memory_usage_estimate();
        assert!(big > small);
        // 3 f64 fields on a size² grid, plus the per-worker term.
        assert_eq!(small, 16 * 16 * 3 * 8 + 2 * 4096);
    }
}
