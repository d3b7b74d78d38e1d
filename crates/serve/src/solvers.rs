//! The serving layer's solver registry: one closed enum over every
//! physics workload `llpd` can run.
//!
//! The generic [`solver`] crate keeps the *run* machinery
//! workload-agnostic via traits; the serving layer, which must parse a
//! `"solver"` field off the wire, key caches, and label metrics,
//! needs a closed dispatch point instead. [`AnyCase`] and [`AnyRun`]
//! are that point: every match arm added here is a new physics served
//! by the same pool, cache, tuner, and telemetry stack.

use f3d::service::{F3dSolver, ServiceCase, ServiceRun};
use fdtd::{FdtdCase, FdtdRun, FdtdSolver};
use llp::{ObsReport, Policy, Timeline, Workers};
use solver::{Solver, SolverSpec};
use tune::{calibrate_solver, CalibrationSpec, TuneDb};

/// Every solver kind the service can name, in the `"solver"` request
/// vocabulary, in a stable order (`f3d` first — the default when the
/// field is omitted).
pub const KINDS: [&str; 2] = [f3d_kind(), fdtd_kind()];

const fn f3d_kind() -> &'static str {
    "f3d"
}

const fn fdtd_kind() -> &'static str {
    "fdtd"
}

/// Every registered solver's span-tree kernel vocabulary, in [`KINDS`]
/// order (the array length ties the two together).
#[must_use]
pub fn kernel_names() -> [&'static [&'static str]; KINDS.len()] {
    [F3dSolver::kernel_names(), FdtdSolver::kernel_names()]
}

/// Calibrate the solver named `kind` (one of [`KINDS`]) on `pool`: the
/// one generic [`calibrate_solver`] over that solver's own calibration
/// case.
///
/// # Errors
/// As [`calibrate_solver`].
pub fn calibrate(kind: &str, pool: &Workers, spec: &CalibrationSpec) -> Result<TuneDb, String> {
    let CalibrationSpec { zones, steps, .. } = *spec;
    if kind == FdtdSolver::kind() {
        calibrate_solver::<FdtdSolver, _>(pool, spec, |workers| {
            FdtdCase::calibration(zones, steps, workers)
        })
    } else {
        calibrate_solver::<F3dSolver, _>(pool, spec, |workers| {
            ServiceCase::calibration(zones, steps, workers)
        })
    }
}

/// A validated solve request for any registered solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnyCase {
    /// The F3D multi-zone flow solve ([`f3d::service`]).
    F3d(ServiceCase),
    /// The 2-D FDTD Maxwell TEz solve ([`fdtd::service`]).
    Fdtd(FdtdCase),
}

impl AnyCase {
    /// The case's solver kind — the cache-key namespace, tune-db slot,
    /// and metrics label.
    pub fn kind(&self) -> &'static str {
        match self {
            AnyCase::F3d(_) => F3dSolver::kind(),
            AnyCase::Fdtd(_) => FdtdSolver::kind(),
        }
    }

    /// Check every field against the solver's service caps.
    ///
    /// # Errors
    /// Returns a message naming the offending field and its bound.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            AnyCase::F3d(c) => SolverSpec::validate(c),
            AnyCase::Fdtd(c) => SolverSpec::validate(c),
        }
    }

    /// Stable case label (obs-report case name, trace registry entry).
    pub fn label(&self) -> String {
        match self {
            AnyCase::F3d(c) => SolverSpec::label(c),
            AnyCase::Fdtd(c) => SolverSpec::label(c),
        }
    }

    /// Canonical content string *without* the solver kind; the cache
    /// key prefixes [`AnyCase::kind`] so equal field spellings of
    /// different physics can never collide.
    pub fn canonical_string(&self) -> String {
        match self {
            AnyCase::F3d(c) => SolverSpec::canonical_string(c),
            AnyCase::Fdtd(c) => SolverSpec::canonical_string(c),
        }
    }

    /// Worker count the case asks for.
    pub fn workers(&self) -> usize {
        match self {
            AnyCase::F3d(c) => SolverSpec::workers(c),
            AnyCase::Fdtd(c) => SolverSpec::workers(c),
        }
    }

    /// The case's chunk-scheduling policy.
    pub fn schedule(&self) -> Policy {
        match self {
            AnyCase::F3d(c) => SolverSpec::schedule(c),
            AnyCase::Fdtd(c) => SolverSpec::schedule(c),
        }
    }

    /// Default SLP lane width.
    pub fn vector_width(&self) -> usize {
        match self {
            AnyCase::F3d(c) => SolverSpec::vector_width(c),
            AnyCase::Fdtd(c) => SolverSpec::vector_width(c),
        }
    }

    /// Estimated peak bytes the solve allocates
    /// ([`Solver::memory_usage_estimate`]) — the admission-control
    /// input checked against `--memory-budget` before any pool work.
    pub fn memory_usage_estimate(&self) -> u64 {
        match self {
            AnyCase::F3d(c) => F3dSolver::memory_usage_estimate(c),
            AnyCase::Fdtd(c) => FdtdSolver::memory_usage_estimate(c),
        }
    }
}

/// One completed solve of any registered solver, carrying the uniform
/// observability payload the serving layer drains.
#[derive(Debug, Clone)]
pub enum AnyRun {
    /// A completed F3D run.
    F3d(ServiceRun),
    /// A completed FDTD run.
    Fdtd(FdtdRun),
}

impl AnyRun {
    /// The run's solver kind.
    pub fn kind(&self) -> &'static str {
        match self {
            AnyRun::F3d(_) => F3dSolver::kind(),
            AnyRun::Fdtd(_) => FdtdSolver::kind(),
        }
    }

    /// The run's case label.
    pub fn label(&self) -> String {
        match self {
            AnyRun::F3d(r) => SolverSpec::label(&r.case),
            AnyRun::Fdtd(r) => SolverSpec::label(&r.case),
        }
    }

    /// Synchronization events the run billed.
    pub fn sync_events(&self) -> u64 {
        match self {
            AnyRun::F3d(r) => r.sync_events,
            AnyRun::Fdtd(r) => r.sync_events,
        }
    }

    /// The run's drained span report.
    pub fn report(&self) -> &ObsReport {
        match self {
            AnyRun::F3d(r) => &r.report,
            AnyRun::Fdtd(r) => &r.report,
        }
    }

    /// The run's drained flight timeline.
    pub fn timeline(&self) -> &Timeline {
        match self {
            AnyRun::F3d(r) => &r.timeline,
            AnyRun::Fdtd(r) => &r.timeline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f3d_case_with(zones: usize) -> ServiceCase {
        ServiceCase {
            zones,
            steps: 3,
            workers: 2,
            schedule: Policy::Static,
            zone_schedule: f3d::service::ZoneSchedule::Sequential,
            vector_width: 1,
        }
    }

    fn f3d_case() -> AnyCase {
        AnyCase::F3d(f3d_case_with(2))
    }

    fn fdtd_case() -> AnyCase {
        AnyCase::Fdtd(FdtdCase {
            size: 16,
            steps: 4,
            workers: 2,
            schedule: Policy::Static,
            vector_width: 1,
        })
    }

    #[test]
    fn kinds_and_delegation_cover_both_solvers() {
        assert_eq!(KINDS, ["f3d", "fdtd"]);
        let f = f3d_case();
        assert_eq!(f.kind(), "f3d");
        assert!(f.validate().is_ok());
        assert!(f.canonical_string().starts_with("zones=2;"));
        assert_eq!(f.workers(), 2);

        let d = fdtd_case();
        assert_eq!(d.kind(), "fdtd");
        assert!(d.validate().is_ok());
        assert_eq!(
            d.canonical_string(),
            "size=16;steps=4;workers=2;schedule=static;vector_width=1"
        );
        assert_eq!(d.label(), "fdtd/n16s4w2");
        assert_eq!(d.vector_width(), 1);
    }

    #[test]
    fn memory_estimates_follow_the_solver_formulas() {
        // fdtd: size^2 * 3 fields * 8 bytes + workers * 4 KiB scratch.
        assert_eq!(
            fdtd_case().memory_usage_estimate(),
            16 * 16 * 3 * 8 + 2 * 4096
        );
        // f3d's estimate is positive and grows with zones.
        let small = f3d_case().memory_usage_estimate();
        let big = AnyCase::F3d(f3d_case_with(4)).memory_usage_estimate();
        assert!(small > 0 && big > small);
    }

    /// The profile → advise loop is not F3D's: any solver's span report
    /// feeds the advisor. A served-maximum FDTD sweep (128 rows,
    /// ≈ 15 µs ≈ 1.5·10⁴ cycles at 1 GHz) is two orders of magnitude
    /// under the Table-1 bound `100·P·S` = 2·10⁶ cycles for P = 2 and
    /// S = 10⁴ — `fdtd_sync_bound`'s premise — and the serial `source`
    /// kernel runs no region at all.
    #[test]
    fn fdtd_span_report_feeds_the_advisor() {
        use llp::{Advisor, LoopDecision};
        use perfmodel::overhead::OverheadBound;

        let case = FdtdCase {
            size: 128,
            steps: 4,
            workers: 2,
            schedule: Policy::Static,
            vector_width: 1,
        };
        let run = fdtd::service::run(&case, &Workers::recorded(2)).unwrap();
        let profile = run.report.kernel_summaries();
        let names: Vec<&str> = profile.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, ["source", "update_e", "update_h"]);

        let advisor = Advisor::new(1e9, OverheadBound::paper_default(10_000), 2);
        let advice = advisor.advise(&profile);
        for (row, loop_advice) in profile.iter().zip(&advice.loops) {
            assert_eq!(row.invocations, 4, "{}", row.name);
            if row.name == "source" {
                assert_eq!(loop_advice.decision, LoopDecision::NoParallelism);
            } else {
                assert_eq!(row.parallelism, 128, "{}", row.name);
                assert!(
                    matches!(
                        loop_advice.decision,
                        LoopDecision::TooLittleWork {
                            required_cycles: 2_000_000,
                            ..
                        }
                    ),
                    "{}: {:?}",
                    row.name,
                    loop_advice.decision
                );
            }
        }
    }
}
