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
//! **The seam.** A solver owns its whole wire vocabulary, next to the
//! `validate`/`label`/`canonical_string` it always owned: its request
//! fields and defaults ([`SolverSpec::from_request`] over the shared
//! [`wire::SolveFields`]), its `case` echo ([`SolverSpec::echo`]), its
//! memory estimate and calibration case, and its result payload
//! ([`SolverOutput::payload`]). A finished run of any solver is one
//! struct, [`SolverRun`], read with the physics erased through
//! [`FinishedRun`] — so a physics is a [`Solver`] impl plus one row of
//! `serve::solvers::TABLE` and one `AnyCase` variant, and nothing else
//! in `serve` names it.
//!
//! [`run_instrumented`] is the one run driver: it owns the
//! instrumentation sequence every served solve follows — policy view,
//! local sync-event billing, span-report and flight-timeline drain (`f3d::service::run` and `fdtd::service::run`
//! are this call).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod widths;
pub mod wire;

pub use widths::{for_lane_groups, validate_width, LaneBody, WidthMap, SUPPORTED_WIDTHS};

use llp::obs::json::Json;
use llp::{ObsReport, Policy, ScheduleMap, Timeline, Workers};
use wire::SolveFields;

/// A validated, canonicalizable solve request: the `Config` half of
/// the trait split. Everything the serving layer needs to parse,
/// admit, cache-key, label, schedule and echo a solve without knowing
/// the physics (object-safe: the constructors are `Self: Sized`).
pub trait SolverSpec {
    /// The solver this case belongs to ([`Solver::KIND`]): the
    /// cache-key namespace, tune-db slot and metrics label.
    fn kind(&self) -> &'static str;

    /// Check every field against its service cap.
    ///
    /// # Errors
    /// Returns a message naming the offending field and its bound.
    fn validate(&self) -> Result<(), String>;

    /// Canonical content string: every semantic field in a fixed order
    /// with a fixed spelling, the basis of content-addressed result
    /// reuse. Two requests that parse to the same case must produce
    /// byte-identical strings; any semantic change must change it.
    /// (The cache key prefixes [`SolverSpec::kind`].)
    fn canonical_string(&self) -> String;

    /// Stable case label, used as the obs-report case name.
    fn label(&self) -> String;

    /// Worker count the case asks for.
    fn workers(&self) -> usize;

    /// The case's chunk-scheduling policy for its doacross regions.
    fn schedule(&self) -> Policy;

    /// Number of time steps the case runs.
    fn steps(&self) -> usize;

    /// The request's SLP lane width (one of [`SUPPORTED_WIDTHS`]):
    /// echoed, cache-keyed and labelled, read by no kernel (lane counts
    /// are kernel constants; see [`widths`]).
    fn vector_width(&self) -> usize;

    /// Estimated peak bytes an instance of this case allocates (fields
    /// plus per-worker scratch). An *estimate* for admission control —
    /// deliberately simple and deterministic, never a measurement —
    /// so the serving layer can reject a solve that cannot fit before
    /// any pool work happens.
    fn memory_usage_estimate(&self) -> u64;

    /// The `case` object a solve response echoes (see [`wire::echo`]
    /// for the member order every solver shares).
    fn echo(&self) -> Json;

    /// The (unvalidated) case a request body describes: the solver's
    /// [`Solver::OWN_FIELDS`] with its defaults for omitted ones, then
    /// the shared fields off `fields`.
    ///
    /// # Errors
    /// Returns a message naming the first mistyped field.
    fn from_request(fields: &SolveFields<'_>) -> Result<Self, String>
    where
        Self: Sized;

    /// The case an autotuner calibration measures: the default
    /// configuration (static, scalar) every candidate is compared
    /// against, at the calibration spec's one size knob `scale` (the
    /// solver says what it means).
    fn calibration(scale: usize, steps: usize, workers: usize) -> Self
    where
        Self: Sized;
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

/// 64-bit FNV-1a over `bytes`: tiny, dependency-free, and stable — the
/// right shape for a content checksum that must never move between
/// builds (unlike [`std::hash::Hasher`], whose output is unspecified).
/// A hash, not physics (`f3d::service` re-exports it).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// One physics workload: the factory tying a spec to its instance
/// type. Implementations are zero-sized marker types (`F3dSolver`,
/// `FdtdSolver`) — the state lives in [`Solver::Instance`].
pub trait Solver {
    /// The validated request this solver runs.
    type Config: SolverSpec + Clone;
    /// The allocated, steppable state.
    type Instance: SolverInstance;

    /// Stable lower-case solver kind — the `"solver"` vocabulary of
    /// the serving API and the cache-key / tune-db namespace prefix.
    const KIND: &'static str;

    /// The span-tree kernel vocabulary this solver's steps emit,
    /// sorted: the names the tune database, schedule map and metrics
    /// labels key on.
    const KERNELS: &'static [&'static str];

    /// The request fields only this solver reads, beside
    /// [`wire::SHARED_FIELDS`] — its size field first; anything else in
    /// a body is a 400.
    const OWN_FIELDS: &'static [&'static str];

    /// Most workers a case may ask for.
    const MAX_WORKERS: usize;

    /// Allocate the instance: grids, fields, deterministic initial
    /// condition. The [`WidthMap`] is empty and ignored.
    fn create_instance(config: &Self::Config, widths: &WidthMap) -> Self::Instance;
}

/// The stepped state of one solve: the `Instance`/`State` half of the
/// split.
pub trait SolverInstance {
    /// What one completed run produces (residual history, checksums,
    /// integrated observables) — everything except the observability
    /// payload, which [`run_instrumented`] drains uniformly.
    type Output: SolverOutput;

    /// Advance one time step on `pool`. Kernels named in `schedules`
    /// execute on a [`Workers::scheduled_view`] carrying their tuned
    /// worker count and policy; everything else inherits the pool's
    /// configuration. Results must be bit-exact across worker counts
    /// and schedules — determinism is the serving contract.
    fn step(&mut self, pool: &Workers, step: usize, schedules: Option<&ScheduleMap>);

    /// Reduce the final state to the run's output.
    fn finish(self) -> Self::Output;
}

/// The physics half of a finished run, as the serving layer reads it.
pub trait SolverOutput {
    /// The solver's result payload: the members a solve response
    /// carries between `case` and `sync_events`, in order.
    fn payload(&self) -> Vec<(&'static str, Json)>;

    /// What the run dispatched at the zone level, if the solver has
    /// one and ran with it: the input of the service's zone gauges.
    fn zone_dispatch(&self) -> Option<ZoneDispatch> {
        None
    }
}

/// Zone-level dispatch totals of one run ([`SolverOutput::zone_dispatch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneDispatch {
    /// Zone shards each step dispatched over.
    pub shards: u64,
    /// Zone tasks executed over the whole run.
    pub zone_tasks: u64,
    /// Peak simultaneously-ready tasks of a step.
    pub peak_ready: u64,
}

/// Everything [`run_instrumented`] produces: the case, its physics
/// output, and the uniform observability payload.
#[derive(Debug, Clone)]
pub struct SolverRun<C, O> {
    /// The case that was run.
    pub case: C,
    /// The workload's own results.
    pub output: O,
    /// Synchronization events this run added to the pool (billed on
    /// the policy view's *local* counter, so concurrent users of the
    /// same pool never leak into this run's bill).
    pub sync_events: u64,
    /// Span report folded from the pool's recorder (empty when the
    /// pool does not record).
    pub report: ObsReport,
    /// The same recording drained as a timeline (empty when the pool
    /// does not record): per-worker chunk/barrier/claim events and the
    /// region marks covering exactly this run's parallel regions.
    pub timeline: Timeline,
}

/// A finished run with its physics erased — every [`SolverRun`] is
/// one. What the serving layer renders, traces and counts.
pub trait FinishedRun {
    /// The case that was run.
    fn case(&self) -> &dyn SolverSpec;
    /// The run's physics output.
    fn output(&self) -> &dyn SolverOutput;
    /// Synchronization events the run billed.
    fn sync_events(&self) -> u64;
    /// The run's drained span report.
    fn report(&self) -> &ObsReport;
    /// The run's drained flight timeline.
    fn timeline(&self) -> &Timeline;
}

impl<C: SolverSpec, O: SolverOutput> FinishedRun for SolverRun<C, O> {
    fn case(&self) -> &dyn SolverSpec {
        &self.case
    }
    fn output(&self) -> &dyn SolverOutput {
        &self.output
    }
    fn sync_events(&self) -> u64 {
        self.sync_events
    }
    fn report(&self) -> &ObsReport {
        &self.report
    }
    fn timeline(&self) -> &Timeline {
        &self.timeline
    }
}

/// Execute a validated spec on `pool` with the instrumentation
/// sequence every served solve shares:
///
/// 1. validate the spec, take a policy view of the pool and allocate
///    the instance;
/// 2. bill sync events on the view's local counter across the step
///    loop;
/// 3. fold the recording into the span report (labeled with the spec's
///    case label and the requested-vs-granted worker clamp), then drain
///    it as the timeline;
/// 4. reduce the instance to its output.
///
/// `schedules` is the overlay a tune database resolves
/// `"schedule": "auto"` to: named kernels run on a
/// [`Workers::scheduled_view`] with their tuned worker count and
/// policy. It is bit-exact: it changes cost, never a result.
///
/// # Errors
/// Returns the spec's [`SolverSpec::validate`] error for out-of-bounds
/// cases.
pub fn run_instrumented<S: Solver>(
    config: &S::Config,
    pool: &Workers,
    schedules: Option<&ScheduleMap>,
) -> Result<SolverRun<S::Config, <S::Instance as SolverInstance>::Output>, String> {
    config.validate()?;
    // The spec's scheduling policy governs every doacross region of
    // the run; the view shares the caller pool's counters and
    // recorder.
    let pool = &pool.with_policy(config.schedule());
    let mut instance = S::create_instance(config, &WidthMap);

    // Count this run's events on the policy view's *local* counter:
    // the shared pool counter also moves when other views of the same
    // pool run concurrently (e.g. another executor), and this
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
        case: config.clone(),
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
    #[derive(Clone)]
    struct ToySpec {
        n: usize,
        steps: usize,
        workers: usize,
    }

    impl SolverSpec for ToySpec {
        fn kind(&self) -> &'static str {
            ToySolver::KIND
        }
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
        fn memory_usage_estimate(&self) -> u64 {
            (self.n * std::mem::size_of::<f64>()) as u64
        }
        fn echo(&self) -> Json {
            wire::echo(self, ("n", self.n), Vec::new())
        }
        fn from_request(fields: &SolveFields<'_>) -> Result<Self, String> {
            Ok(Self {
                n: fields.count("n", 8)?,
                steps: fields.steps()?,
                workers: fields.workers()?,
            })
        }
        fn calibration(scale: usize, steps: usize, workers: usize) -> Self {
            Self {
                n: 8 * scale,
                steps,
                workers,
            }
        }
    }

    struct ToyInstance {
        data: Vec<f64>,
    }

    /// Output = final sum.
    struct ToyOutput(f64);

    impl SolverOutput for ToyOutput {
        fn payload(&self) -> Vec<(&'static str, Json)> {
            vec![("sum", Json::Num(self.0))]
        }
    }

    impl SolverInstance for ToyInstance {
        type Output = ToyOutput;

        fn step(&mut self, pool: &Workers, _step: usize, schedules: Option<&ScheduleMap>) {
            let kw = pool.scheduled_view(schedules, "toy");
            llp::doacross_slabs(&kw, &mut self.data, 1, |i, slab| {
                slab[0] += i as f64;
            });
        }

        fn finish(self) -> ToyOutput {
            ToyOutput(self.data.iter().sum())
        }
    }

    struct ToySolver;

    impl Solver for ToySolver {
        type Config = ToySpec;
        type Instance = ToyInstance;

        const KIND: &'static str = "toy";
        const KERNELS: &'static [&'static str] = &["toy"];
        const OWN_FIELDS: &'static [&'static str] = &["n"];
        const MAX_WORKERS: usize = 4;

        fn create_instance(config: &ToySpec, _widths: &WidthMap) -> ToyInstance {
            ToyInstance {
                data: vec![0.0; config.n],
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
        assert!(run_instrumented::<ToySolver>(&bad, &Workers::serial(), None).is_err());

        let spec = ToySpec {
            n: 8,
            steps: 3,
            workers: 2,
        };
        let pool = Workers::recorded(2);
        let run = run_instrumented::<ToySolver>(&spec, &pool, None).unwrap();
        // 3 steps x 1 region each.
        assert_eq!(run.sync_events, 3);
        assert_eq!(run.report.case, "toy/n8");
        assert_eq!(run.report.sync_events(), 3);
        // Each element accumulated its index three times.
        assert_eq!(run.output.0, 3.0 * (0..8).sum::<usize>() as f64);
        assert_eq!(spec.memory_usage_estimate(), 64);
        // The run carries its case, and reads the same with the
        // physics erased.
        assert_eq!(run.case.n, 8);
        let erased: &dyn FinishedRun = &run;
        assert_eq!(erased.case().kind(), "toy");
        assert_eq!(erased.sync_events(), 3);
        assert_eq!(erased.output().payload()[0].0, "sum");
        assert!(erased.output().zone_dispatch().is_none());
        // A second run drains cleanly — the report covers only itself.
        let again = run_instrumented::<ToySolver>(&spec, &pool, None).unwrap();
        assert_eq!(again.report.sync_events(), 3);
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
        let tuned = run_instrumented::<ToySolver>(&spec, &pool, Some(&map)).unwrap();
        let plain = run_instrumented::<ToySolver>(&spec, &pool, None).unwrap();
        // Scheduling is a performance knob: results identical.
        assert_eq!(tuned.output.0, plain.output.0);
        assert_eq!(tuned.sync_events, plain.sync_events);
    }

    #[test]
    fn fnv_matches_the_published_test_vectors() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
