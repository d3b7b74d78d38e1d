//! The serving layer's solver table: the one place `llpd` names its
//! physics.
//!
//! The generic [`solver`] crate keeps a solver's whole contract behind
//! traits — run machinery, wire vocabulary, calibration case — so the
//! serving layer needs only a closed dispatch point for the `"solver"`
//! field it parses off the wire. That point is [`TABLE`], one
//! [`SolverRow`] per kind built generically from its [`Solver`] impl,
//! plus [`AnyCase`], the closed enum of validated cases with exactly
//! two matches: to the spec ([`AnyCase::spec`]) and to run it
//! ([`AnyCase::run`]). A new physics is a `Solver` impl, one row and
//! one variant; `api`, `server`, `cache` and `metrics` name none.

use f3d::service::{F3dSolver, ServiceCase};
use fdtd::{FdtdCase, FdtdSolver};
use llp::{ScheduleMap, Workers};
use solver::wire::SolveFields;
use solver::{run_instrumented, FinishedRun, Solver, SolverSpec};
use tune::{calibrate_solver, CalibrationSpec, TuneDb};

/// What the service knows about one solver kind — everything but how
/// to run a case, which needs the case's type ([`AnyCase::run`]).
pub struct SolverRow {
    /// The `"solver"` request value ([`Solver::KIND`]).
    pub kind: &'static str,
    /// The span-tree kernel vocabulary ([`Solver::KERNELS`]).
    pub kernels: &'static [&'static str],
    /// The request fields only it reads ([`Solver::OWN_FIELDS`]).
    pub own_fields: &'static [&'static str],
    /// Most workers a case may ask for ([`Solver::MAX_WORKERS`]).
    pub max_workers: usize,
    /// Build and validate the case a request body describes.
    pub parse: fn(&SolveFields<'_>) -> Result<AnyCase, String>,
    /// Calibrate this solver on a pool ([`calibrate_solver`]).
    pub calibrate: fn(&Workers, &CalibrationSpec) -> Result<TuneDb, String>,
}

impl SolverRow {
    const fn of<S: Solver>() -> Self
    where
        AnyCase: From<S::Config>,
    {
        Self {
            kind: S::KIND,
            kernels: S::KERNELS,
            own_fields: S::OWN_FIELDS,
            max_workers: S::MAX_WORKERS,
            parse: |fields| {
                let case = S::Config::from_request(fields)?;
                case.validate()?;
                Ok(case.into())
            },
            calibrate: calibrate_solver::<S>,
        }
    }
}

/// Every registered solver, in a stable order (`f3d` first — the
/// default when a request names none).
pub static TABLE: [SolverRow; 2] = [SolverRow::of::<F3dSolver>(), SolverRow::of::<FdtdSolver>()];

/// The `"solver"` request vocabulary, in [`TABLE`] order.
pub const KINDS: [&str; TABLE.len()] = {
    let mut kinds = [""; TABLE.len()];
    let mut i = 0;
    while i < TABLE.len() {
        kinds[i] = TABLE[i].kind;
        i += 1;
    }
    kinds
};

/// Widest case any registered solver admits: the cap on the shared
/// pool and on the `workers` an omitted field defaults to.
pub const MAX_WORKERS: usize = {
    let mut max = 0;
    let mut i = 0;
    while i < TABLE.len() {
        if TABLE[i].max_workers > max {
            max = TABLE[i].max_workers;
        }
        i += 1;
    }
    max
};

/// The solver whose tune database overlays `/v1/advise`: the advisor
/// speaks F3D's kernel vocabulary (`rhs_jk`, `l_factor_solve`, …).
pub const ADVISE_KIND: &str = F3dSolver::KIND;

/// The row of the solver named `kind`.
///
/// # Errors
/// The 400 text for a kind outside [`KINDS`], listing the vocabulary.
pub fn known(kind: &str) -> Result<&'static SolverRow, String> {
    TABLE.iter().find(|row| row.kind == kind).ok_or_else(|| {
        format!(
            "unknown solver `{kind}`; known solvers: {}",
            KINDS.join(", ")
        )
    })
}

/// A validated solve request for any registered solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnyCase {
    /// The F3D multi-zone flow solve ([`f3d::service`]).
    F3d(ServiceCase),
    /// The 2-D FDTD Maxwell TEz solve ([`fdtd::service`]).
    Fdtd(FdtdCase),
}

impl From<ServiceCase> for AnyCase {
    fn from(case: ServiceCase) -> Self {
        AnyCase::F3d(case)
    }
}

impl From<FdtdCase> for AnyCase {
    fn from(case: FdtdCase) -> Self {
        AnyCase::Fdtd(case)
    }
}

impl AnyCase {
    /// The case as its solver-agnostic contract: kind, caps, label,
    /// canonical string, echo, memory estimate.
    #[must_use]
    pub fn spec(&self) -> &dyn SolverSpec {
        match self {
            AnyCase::F3d(case) => case,
            AnyCase::Fdtd(case) => case,
        }
    }

    /// Run the case on `pool` through the one driver, with its physics
    /// erased from the result (`Send + Sync`: the trace store hands the
    /// run from the executor to the event loop).
    ///
    /// # Errors
    /// As [`run_instrumented`].
    pub fn run(
        &self,
        pool: &Workers,
        schedules: Option<&ScheduleMap>,
    ) -> Result<Box<dyn FinishedRun + Send + Sync>, String> {
        Ok(match self {
            AnyCase::F3d(case) => Box::new(run_instrumented::<F3dSolver>(case, pool, schedules)?),
            AnyCase::Fdtd(case) => Box::new(run_instrumented::<FdtdSolver>(case, pool, schedules)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table is total: every row, driven through nothing but the
    /// row and the wire, honours the whole contract the service relies
    /// on. A new solver gets all of it by being listed.
    #[test]
    fn every_row_of_the_table_honours_the_contract() {
        use crate::api::parse_solve_body;
        use crate::cache::ContentKey;

        assert_eq!(KINDS, ["f3d", "fdtd"]);
        assert_eq!(MAX_WORKERS, 64);
        assert_eq!(ADVISE_KIND, KINDS[0]);
        for (row, kind) in TABLE.iter().zip(KINDS) {
            assert_eq!(row.kind, kind);
            assert!(std::ptr::eq(known(kind).unwrap(), row));

            // The body naming only the solver is that solver's default
            // case: it validates, knows its kind, and keys under it.
            let body = format!(r#"{{"solver": "{kind}"}}"#);
            let case = parse_solve_body(&body, 2).unwrap().case;
            let spec = case.spec();
            assert!(spec.validate().is_ok(), "{kind}");
            assert_eq!(spec.kind(), kind);
            assert_eq!(spec.workers(), 2, "{kind}: workers default to the pool");
            let key = ContentKey::for_case(&case, false, 0);
            assert!(
                key.canonical().starts_with(&format!("solve/{kind}/")),
                "{}",
                key.canonical()
            );
            assert_eq!(spec.echo().get("steps").and_then(|s| s.as_usize()), Some(4));

            // Kernel vocabulary: non-empty and sorted (the tune db and
            // the metrics labels list it in this order).
            assert!(!row.kernels.is_empty(), "{kind}");
            assert!(row.kernels.is_sorted(), "{kind}: {:?}", row.kernels);

            // The solver's first own field is its size field: the
            // memory estimate grows with it, over every value the caps
            // admit.
            let size = row.own_fields[0];
            let estimates: Vec<u64> = [1, 2, 4, 8, 16, 32, 64, 128]
                .iter()
                .filter_map(|n| {
                    let body = format!(r#"{{"solver": "{kind}", "{size}": {n}}}"#);
                    parse_solve_body(&body, 2).ok()
                })
                .map(|req| req.case.spec().memory_usage_estimate())
                .collect();
            assert!(estimates.len() >= 3, "{kind}: {size} admits {estimates:?}");
            assert!(
                estimates.is_sorted_by(|a, b| a < b),
                "{kind}: {estimates:?}"
            );

            // The calibration case validates and runs, and the
            // database it yields speaks the row's vocabulary.
            let spec = CalibrationSpec {
                zones: 1,
                steps: 1,
                trials: 1,
            };
            let db = (row.calibrate)(&Workers::new(1), &spec).unwrap();
            assert_eq!(db.solver, kind);
            let names: Vec<&str> = db.entries.iter().map(|e| e.kernel.as_str()).collect();
            assert_eq!(names, row.kernels, "{kind}");
        }
        let err = known("mhd").err().unwrap();
        assert_eq!(err, "unknown solver `mhd`; known solvers: f3d, fdtd");
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

        let case = FdtdCase::calibration(8, 4, 2); // 128 × 128, static, scalar
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
