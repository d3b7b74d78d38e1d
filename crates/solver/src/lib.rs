//! `solver` — the generic trait layer that makes the serving and
//! tuning stack multi-physics.
//!
//! The paper's thesis is that loop-level parallelization machinery is
//! workload-agnostic: the stair-step speedup, the Table 1 minimum-work
//! bound, and the doacross/scheduling laws apply to *any* vectorizable
//! nest, not just the F3D flow solver they were derived on. This crate
//! encodes that claim as an interface: a physics workload implements
//! [`Solver`] (configuration → instance → stepped state), and in
//! return every layer built above the [`llp`] pool — sharded
//! executors, flight recorder, autotuner, Prometheus telemetry,
//! content-addressed caching — applies to it at near-zero marginal
//! cost.
//!
//! The split follows the `Config → Instance → State` shape of
//! jgraef/fdtd's solver traits (see SNIPPETS.md): a [`SolverSpec`] is
//! the validated, canonicalizable request; [`Solver::create_instance`]
//! allocates the grids and fields; [`SolverInstance::step`] advances
//! one time step on a caller-supplied [`Workers`] pool, honoring
//! per-kernel schedule overrides; and [`SolverInstance::finish`]
//! reduces the stepped state to the workload's output (checksums,
//! integrated observables).
//!
//! [`run_instrumented`] is the one shared run driver: it owns the
//! instrumentation sequence every served solve follows — policy view,
//! width-map resolution, local sync-event billing, span-report and
//! flight-timeline drain — so a new physics gets byte-identical
//! observability semantics for free, and the F3D refactor behind this
//! trait provably changes no result (the sequence is the one
//! `f3d::service::run_tuned` always executed, now shared).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod widths;

pub use widths::{for_lane_groups, validate_width, LaneBody, WidthMap, SUPPORTED_WIDTHS};

use llp::{ObsReport, Policy, ScheduleMap, Timeline, Workers};

/// A validated, canonicalizable solve request: the `Config` half of
/// the trait split. Everything the serving layer needs to admit,
/// cache-key, label, and schedule a solve without knowing the physics.
pub trait SolverSpec {
    /// Check every field against its service cap.
    ///
    /// # Errors
    /// Returns a message naming the offending field and its bound.
    fn validate(&self) -> Result<(), String>;

    /// Canonical content string: every semantic field in a fixed order
    /// with a fixed spelling, the basis of content-addressed result
    /// reuse. Two requests that parse to the same case must produce
    /// byte-identical strings; any semantic change must change it.
    fn canonical_string(&self) -> String;

    /// Stable case label, used as the obs-report case name.
    fn label(&self) -> String;

    /// Worker count the case asks for.
    fn workers(&self) -> usize;

    /// The case's chunk-scheduling policy for its doacross regions.
    fn schedule(&self) -> Policy;

    /// Number of time steps the case runs.
    fn steps(&self) -> usize;

    /// Default SLP lane width (one of [`SUPPORTED_WIDTHS`]); the
    /// width map's per-kernel entries win over it.
    fn vector_width(&self) -> usize;
}

/// The range check every spec's `validate` applies to its counted
/// fields: `value` must lie in `1..=max`. One statement, so every 400
/// the service answers for an out-of-cap field reads the same.
///
/// # Errors
/// Returns a message naming the field, its bound, and the value.
pub fn check_range(name: &str, value: usize, max: usize) -> Result<(), String> {
    if (1..=max).contains(&value) {
        Ok(())
    } else {
        Err(format!("{name} must be in 1..={max}, got {value}"))
    }
}

/// One physics workload: the factory tying a spec to its instance
/// type. Implementations are zero-sized marker types (`F3dSolver`,
/// `FdtdSolver`) — the state lives in [`Solver::Instance`].
pub trait Solver {
    /// The validated request this solver runs.
    type Config: SolverSpec;
    /// The allocated, steppable state.
    type Instance: SolverInstance;

    /// Stable lower-case solver kind — the `"solver"` vocabulary of
    /// the serving API and the cache-key / tune-db namespace prefix.
    fn kind() -> &'static str;

    /// The span-tree kernel vocabulary this solver's steps emit, in a
    /// stable order: the names the tune database, schedule map, width
    /// map, and metrics labels key on.
    fn kernel_names() -> &'static [&'static str];

    /// The kernels whose code reads their lane width — a subset of
    /// [`Solver::kernel_names`]. Every other kernel runs one body at
    /// every width (see [`widths`]), so a calibration has nothing to
    /// race there and measures it at width 1 only.
    fn wide_kernels() -> &'static [&'static str] {
        Self::kernel_names()
    }

    /// Estimated peak bytes an instance of `config` allocates (fields
    /// plus per-worker scratch). An *estimate* for admission control —
    /// deliberately simple and deterministic, never a measurement —
    /// so the serving layer can reject a solve that cannot fit before
    /// any pool work happens.
    fn memory_usage_estimate(config: &Self::Config) -> u64;

    /// Allocate the instance: grids, fields, deterministic initial
    /// condition, and the per-kernel width selection (`widths` already
    /// has the spec's default width folded in).
    fn create_instance(config: &Self::Config, widths: &WidthMap) -> Self::Instance;
}

/// The stepped state of one solve: the `Instance`/`State` half of the
/// split.
pub trait SolverInstance {
    /// What one completed run produces (residual history, checksums,
    /// integrated observables) — everything except the observability
    /// payload, which [`run_instrumented`] drains uniformly.
    type Output;

    /// Advance one time step on `pool`. Kernels named in `schedules`
    /// execute on a [`Workers::scheduled_view`] carrying their tuned
    /// worker count and policy; everything else inherits the pool's
    /// configuration. Results must be bit-exact across worker counts,
    /// schedules, and widths — determinism is the serving contract.
    fn step(&mut self, pool: &Workers, step: usize, schedules: Option<&ScheduleMap>);

    /// Reduce the final state to the run's output.
    fn finish(self) -> Self::Output;
}

/// Everything [`run_instrumented`] produces: the physics output plus
/// the uniform observability payload.
#[derive(Debug, Clone)]
pub struct SolverRun<O> {
    /// The workload's own results.
    pub output: O,
    /// Synchronization events this run added to the pool (billed on
    /// the policy view's *local* counter, so concurrent users of the
    /// same pool never leak into this run's bill).
    pub sync_events: u64,
    /// Span report drained from the pool's recorder (empty when the
    /// pool does not record).
    pub report: ObsReport,
    /// Flight-recorder timeline drained from the pool (empty when the
    /// pool carries no flight recorder).
    pub timeline: Timeline,
}

/// Execute a validated spec on `pool` with the instrumentation
/// sequence every served solve shares:
///
/// 1. validate the spec and take a policy view of the pool;
/// 2. resolve the width map (per-kernel entries over the spec's
///    default) and allocate the instance;
/// 3. bill sync events on the view's local counter across the step
///    loop;
/// 4. drain the span report (labeled with the spec's case label and
///    the requested-vs-granted worker clamp) and the flight timeline;
/// 5. reduce the instance to its output.
///
/// This is extracted verbatim from the pre-trait `f3d::service`
/// driver, so refactoring a workload behind it changes no result.
///
/// # Errors
/// Returns the spec's [`SolverSpec::validate`] error for out-of-bounds
/// cases.
pub fn run_instrumented<S: Solver>(
    config: &S::Config,
    pool: &Workers,
    schedules: Option<&ScheduleMap>,
    widths: Option<&WidthMap>,
) -> Result<SolverRun<<S::Instance as SolverInstance>::Output>, String> {
    config.validate()?;
    // The spec's scheduling policy governs every doacross region of
    // the run; the view shares the caller pool's counters and
    // recorder.
    let pool = &pool.with_policy(config.schedule());
    let mut width_map = widths.cloned().unwrap_or_default();
    width_map.set_default(config.vector_width());
    let mut instance = S::create_instance(config, &width_map);

    // Count this run's events on the policy view's *local* counter:
    // the shared pool counter also moves when other views of the same
    // pool run concurrently (e.g. another executor shard), and this
    // run's bill must cover exactly its own regions.
    let sync_before = pool.local_sync_event_count();
    for step in 0..config.steps() {
        instance.step(pool, step, schedules);
    }
    let sync_events = pool.local_sync_event_count() - sync_before;
    let report = pool
        .recorder()
        .take_report(&config.label(), pool.processors())
        .with_requested_workers(pool.requested_processors());
    let timeline = pool.flight().take_timeline();

    Ok(SolverRun {
        output: instance.finish(),
        sync_events,
        report,
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy workload exercising the driver: `steps` doacross sweeps
    /// incrementing a vector, output = final sum.
    struct ToySpec {
        n: usize,
        steps: usize,
        workers: usize,
    }

    impl SolverSpec for ToySpec {
        fn validate(&self) -> Result<(), String> {
            check_range("n", self.n, 1024)
        }
        fn canonical_string(&self) -> String {
            format!("n={};steps={}", self.n, self.steps)
        }
        fn label(&self) -> String {
            format!("toy/n{}", self.n)
        }
        fn workers(&self) -> usize {
            self.workers
        }
        fn schedule(&self) -> Policy {
            Policy::Static
        }
        fn steps(&self) -> usize {
            self.steps
        }
        fn vector_width(&self) -> usize {
            1
        }
    }

    struct ToyInstance {
        data: Vec<f64>,
        width: usize,
    }

    impl SolverInstance for ToyInstance {
        type Output = (f64, usize);

        fn step(&mut self, pool: &Workers, _step: usize, schedules: Option<&ScheduleMap>) {
            let kw = pool.scheduled_view(schedules, "toy");
            llp::doacross_slabs(&kw, &mut self.data, 1, |i, slab| {
                slab[0] += i as f64;
            });
        }

        fn finish(self) -> (f64, usize) {
            (self.data.iter().sum(), self.width)
        }
    }

    struct ToySolver;

    impl Solver for ToySolver {
        type Config = ToySpec;
        type Instance = ToyInstance;

        fn kind() -> &'static str {
            "toy"
        }
        fn kernel_names() -> &'static [&'static str] {
            &["toy"]
        }
        fn memory_usage_estimate(config: &ToySpec) -> u64 {
            (config.n * std::mem::size_of::<f64>()) as u64
        }
        fn create_instance(config: &ToySpec, widths: &WidthMap) -> ToyInstance {
            ToyInstance {
                data: vec![0.0; config.n],
                width: widths.get("toy"),
            }
        }
    }

    #[test]
    fn driver_validates_bills_and_drains() {
        let bad = ToySpec {
            n: 0,
            steps: 1,
            workers: 1,
        };
        assert!(run_instrumented::<ToySolver>(&bad, &Workers::serial(), None, None).is_err());

        let spec = ToySpec {
            n: 8,
            steps: 3,
            workers: 2,
        };
        let pool = Workers::recorded(2);
        let run = run_instrumented::<ToySolver>(&spec, &pool, None, None).unwrap();
        // 3 steps x 1 region each.
        assert_eq!(run.sync_events, 3);
        assert_eq!(run.report.case, "toy/n8");
        assert_eq!(run.report.sync_events(), 3);
        // Each element accumulated its index three times.
        assert_eq!(run.output.0, 3.0 * (0..8).sum::<usize>() as f64);
        // No widths passed: the spec's scalar default applies.
        assert_eq!(run.output.1, 1);
        // A second run drains cleanly — the report covers only itself.
        let again = run_instrumented::<ToySolver>(&spec, &pool, None, None).unwrap();
        assert_eq!(again.report.sync_events(), 3);
    }

    #[test]
    fn width_map_entries_win_over_the_spec_default() {
        let spec = ToySpec {
            n: 4,
            steps: 1,
            workers: 1,
        };
        let mut widths = WidthMap::new();
        widths.set("toy", 4);
        let run =
            run_instrumented::<ToySolver>(&spec, &Workers::serial(), None, Some(&widths)).unwrap();
        assert_eq!(run.output.1, 4);
        assert_eq!(ToySolver::kind(), "toy");
        assert_eq!(ToySolver::kernel_names(), &["toy"]);
        // Unless a solver says otherwise, every kernel reads its width.
        assert_eq!(ToySolver::wide_kernels(), ToySolver::kernel_names());
        assert_eq!(ToySolver::memory_usage_estimate(&spec), 32);
    }

    #[test]
    fn tuned_schedules_reach_the_kernels() {
        let spec = ToySpec {
            n: 8,
            steps: 2,
            workers: 2,
        };
        let mut map = ScheduleMap::new();
        map.set("toy", 1, Policy::Dynamic { chunk: 2 });
        let pool = Workers::new(2);
        let tuned = run_instrumented::<ToySolver>(&spec, &pool, Some(&map), None).unwrap();
        let plain = run_instrumented::<ToySolver>(&spec, &pool, None, None).unwrap();
        // Scheduling is a performance knob: results identical.
        assert_eq!(tuned.output.0, plain.output.0);
        assert_eq!(tuned.sync_events, plain.sync_events);
    }
}
