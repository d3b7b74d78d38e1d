//! The worker pool: scoped worker threads plus the
//! synchronization-event accounting the paper's cost model budgets for.
//!
//! Built directly on [`std::thread::scope`] — the environment has no
//! external thread-pool crates — so a parallel region spawns its worker
//! threads at entry and joins them at the barrier. That join *is* the
//! synchronization event the paper's model charges for: each exit from
//! a parallel region increments the counter by one, mirroring "the main
//! cost of parallelization is … the synchronization cost associated
//! with exiting a parallel section of code".

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::obs::timeline::DEFAULT_EVENT_CAPACITY;
use crate::obs::{FlightRecorder, Recorder};
use crate::schedule::Policy;

/// A boxed task queued on a [`RegionScope`].
type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

/// The spawning interface handed to a region body: tasks queued here
/// all complete before [`Workers::region`] returns.
///
/// Tasks are collected first and launched together when the body
/// finishes, one OS thread per task except the last, which runs on the
/// calling thread — so a single-chunk (serial) region spawns no thread
/// at all.
pub struct RegionScope<'env> {
    tasks: RefCell<Vec<Task<'env>>>,
}

impl std::fmt::Debug for RegionScope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionScope")
            .field("queued", &self.tasks.borrow().len())
            .finish()
    }
}

impl<'env> RegionScope<'env> {
    /// Queue one task for the region.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'env) {
        self.tasks.borrow_mut().push(Box::new(task));
    }
}

/// A shared-memory worker team of `P` "processors".
///
/// The processor count is an explicit experimental parameter (it bounds
/// how many chunks the schedulers cut), and the team counts
/// **synchronization events** — one per parallel-region exit. When
/// built with [`Workers::recorded`] (or given a recorder via
/// [`Workers::set_recorder`]), every region additionally records an
/// observability span; by default the recorder is disabled and costs
/// one branch per region.
pub struct Workers {
    processors: usize,
    /// What the caller asked for before any [`Workers::sized_view`]
    /// clamp; equals `processors` for a directly-constructed team.
    requested: usize,
    counters: Arc<Counters>,
    /// Per-view counters: fresh for every [`Workers::sized_view`] /
    /// [`Workers::with_policy`] view, so a view can attribute events to
    /// exactly its own regions even while other views of the same pool
    /// run concurrently (the shared `counters` keep the pool total).
    local: Arc<Counters>,
    recorder: Recorder,
    /// Per-worker timeline flight recorder (disabled by default, like
    /// the span recorder; force-enabled pool-wide by `LLP_FLIGHT=1`).
    flight: FlightRecorder,
    policy: Policy,
}

/// Shared event counters: one allocation per pool, shared by every
/// [`Workers::sized_view`] of it.
#[derive(Default)]
struct Counters {
    sync_events: AtomicU64,
    regions: AtomicU64,
}

impl std::fmt::Debug for Workers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workers")
            .field("processors", &self.processors)
            .field("sync_events", &self.sync_event_count())
            .field("recording", &self.recorder.is_enabled())
            .finish()
    }
}

impl Workers {
    /// Create a team of `processors` workers (observation disabled).
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    #[must_use]
    pub fn new(processors: usize) -> Self {
        assert!(processors > 0, "worker count must be positive");
        let flight = if flight_force_enabled() {
            FlightRecorder::enabled(processors, DEFAULT_EVENT_CAPACITY)
        } else {
            FlightRecorder::disabled()
        };
        Self {
            processors,
            requested: processors,
            counters: Arc::new(Counters::default()),
            local: Arc::new(Counters::default()),
            recorder: Recorder::disabled(),
            flight,
            policy: Policy::Static,
        }
    }

    /// A team of `processors` workers with span recording enabled.
    #[must_use]
    pub fn recorded(processors: usize) -> Self {
        let mut w = Self::new(processors);
        w.recorder = Recorder::enabled();
        w
    }

    /// A single-worker team (serial execution through the same API).
    #[must_use]
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// A team sized for this machine: the `LLP_WORKERS` environment
    /// variable when set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`] (1 if unavailable).
    ///
    /// This is the right default for binaries and examples; experiments
    /// that sweep processor counts should keep passing explicit values
    /// to [`Workers::new`].
    #[must_use]
    pub fn default_sized() -> Self {
        Self::new(default_worker_count())
    }

    /// Number of workers ("processors") in the team.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// A differently-sized view of the *same* pool: the view schedules
    /// its regions over `processors` workers, but synchronization
    /// events, region counts and recorded spans all accumulate on this
    /// pool's shared state.
    ///
    /// This is how a service runs requests that ask for fewer workers
    /// than the pool owns while keeping one set of pool-wide totals:
    /// `pool.sized_view(w)` costs two `Arc` clones, and
    /// [`Workers::sync_event_count`] on the parent still reflects every
    /// region the view ran.
    ///
    /// Requests for more workers than this pool owns are **clamped** to
    /// the pool size rather than oversubscribing: a view cannot promise
    /// processors its pool does not have. The clamp is visible through
    /// [`Workers::requested_processors`], which span reports surface so
    /// a clamped run is never mistaken for the full-width one.
    ///
    /// The view inherits this pool's scheduling [`Policy`].
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    #[must_use]
    pub fn sized_view(&self, processors: usize) -> Self {
        assert!(processors > 0, "worker count must be positive");
        Self {
            processors: processors.min(self.processors),
            requested: processors,
            counters: Arc::clone(&self.counters),
            local: Arc::new(Counters::default()),
            recorder: self.recorder.clone(),
            flight: self.flight.clone(),
            policy: self.policy,
        }
    }

    /// The processor count originally requested from
    /// [`Workers::sized_view`], before clamping to the base pool size.
    /// Equals [`Workers::processors`] unless the request oversubscribed.
    #[must_use]
    pub fn requested_processors(&self) -> usize {
        self.requested
    }

    /// The team's chunk-scheduling policy (static unless changed).
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Set the chunk-scheduling policy used by `doacross` entry points.
    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
    }

    /// A same-sized view of this pool running under `policy`: shares
    /// counters and recorder, like [`Workers::sized_view`], but changes
    /// only the scheduling policy. This is how a service applies a
    /// per-request policy without mutating the shared pool.
    #[must_use]
    pub fn with_policy(&self, policy: Policy) -> Self {
        Self {
            processors: self.processors,
            requested: self.requested,
            counters: Arc::clone(&self.counters),
            local: Arc::new(Counters::default()),
            recorder: self.recorder.clone(),
            flight: self.flight.clone(),
            policy,
        }
    }

    /// A per-kernel view of this view: `processors` workers (clamped to
    /// this view's width) running under `policy`, sharing **both** the
    /// pool-wide counters *and this view's local counters*.
    ///
    /// This is the autotuner's substitution point: a request-scoped
    /// view hands each kernel call site a `kernel_view` carrying that
    /// kernel's tuned configuration, and because the local counters are
    /// shared (unlike [`Workers::sized_view`], which starts fresh ones)
    /// the request's `local_sync_event_count` delta still bills every
    /// region the kernels ran.
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    #[must_use]
    pub fn kernel_view(&self, processors: usize, policy: Policy) -> Self {
        assert!(processors > 0, "worker count must be positive");
        Self {
            processors: processors.min(self.processors),
            requested: processors,
            counters: Arc::clone(&self.counters),
            local: Arc::clone(&self.local),
            recorder: self.recorder.clone(),
            flight: self.flight.clone(),
            policy,
        }
    }

    /// The team's span recorder (disabled unless enabled explicitly).
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Replace the team's recorder (e.g. to share one recorder between
    /// a solver and its pool, or to switch recording on).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The team's flight recorder (disabled unless enabled explicitly
    /// or forced by `LLP_FLIGHT=1`). Views share their pool's recorder,
    /// so one drain covers every region the pool ran.
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Replace the team's flight recorder — how the serve layer gives
    /// each executor shard its own rings. Lanes should cover this
    /// team's [`Workers::processors`]; narrower recorders silently drop
    /// events from the uncovered lanes.
    pub fn set_flight(&mut self, flight: FlightRecorder) {
        self.flight = flight;
    }

    /// Total synchronization events (parallel-region exits) so far.
    #[must_use]
    pub fn sync_event_count(&self) -> u64 {
        self.counters.sync_events.load(Ordering::Relaxed)
    }

    /// Synchronization events run through *this view* specifically.
    ///
    /// Unlike [`Workers::sync_event_count`] — which is the pool-wide
    /// total shared by every view — this counter starts at zero for
    /// each [`Workers::sized_view`] / [`Workers::with_policy`] view, so
    /// a delta over it attributes events to exactly one request even
    /// when other views of the same pool execute concurrently.
    #[must_use]
    pub fn local_sync_event_count(&self) -> u64 {
        self.local.sync_events.load(Ordering::Relaxed)
    }

    /// Total parallel regions entered so far (equal to
    /// [`Self::sync_event_count`] unless a region is currently active).
    #[must_use]
    pub fn region_count(&self) -> u64 {
        self.counters.regions.load(Ordering::Relaxed)
    }

    /// Reset the event counters, shared and view-local (e.g. between
    /// benchmark phases).
    pub fn reset_counters(&self) {
        self.counters.sync_events.store(0, Ordering::Relaxed);
        self.counters.regions.store(0, Ordering::Relaxed);
        self.local.sync_events.store(0, Ordering::Relaxed);
        self.local.regions.store(0, Ordering::Relaxed);
    }

    /// Run `f` as one parallel region: `f` receives a [`RegionScope`]
    /// in which it may spawn tasks; when all tasks complete, one
    /// synchronization event is recorded (plus a region span when the
    /// recorder is enabled).
    ///
    /// This is the primitive beneath [`crate::doacross`]; prefer the
    /// higher-level entry points.
    pub fn region<'env, R>(&self, f: impl FnOnce(&RegionScope<'env>) -> R) -> R {
        self.counters.regions.fetch_add(1, Ordering::Relaxed);
        self.local.regions.fetch_add(1, Ordering::Relaxed);
        let start = if self.recorder.is_enabled() {
            Some(Instant::now())
        } else {
            None
        };
        let scope = RegionScope {
            tasks: RefCell::new(Vec::new()),
        };
        let out = f(&scope);
        run_tasks(scope.tasks.into_inner());
        self.counters.sync_events.fetch_add(1, Ordering::Relaxed);
        self.local.sync_events.fetch_add(1, Ordering::Relaxed);
        if let Some(start) = start {
            self.recorder
                .attach_region(self.processors, start.elapsed().as_secs_f64());
        }
        out
    }
}

/// Whether `LLP_FLIGHT=1` forces a flight recorder onto every team.
/// Read once per process: the whole point of the switch is to run an
/// unmodified test suite through the instrumented path in CI.
fn flight_force_enabled() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("LLP_FLIGHT").is_ok_and(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true")
        })
    })
}

/// The machine-default worker count: `LLP_WORKERS` when set to a
/// positive integer, else [`std::thread::available_parallelism`],
/// else 1. Values that fail to parse (or are zero) are rejected with a
/// stderr warning via [`crate::env::positive_usize`] rather than
/// panicking — a service must not die on a typo'd environment.
#[must_use]
pub fn default_worker_count() -> usize {
    crate::env::positive_usize("LLP_WORKERS").unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// The atomic iteration-claim counter behind dynamic (self-scheduling)
/// and guided chunk policies: a pre-computed chunk list is indexed by a
/// single shared counter, and each claimant loops
/// `while let Some(i) = claimer.claim()` until the list is exhausted.
///
/// Each successful claim is one scheduling interaction — the extra cost
/// the paper's static-scheduling model avoids and
/// [`Policy::scheduling_events`] accounts for.
#[derive(Debug)]
pub struct ChunkClaimer {
    next: AtomicUsize,
    limit: usize,
}

impl ChunkClaimer {
    /// A claimer over chunk indices `0..limit`.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            limit,
        }
    }

    /// Claim the next chunk index, or `None` once all are handed out.
    /// Indices are handed out exactly once, in order.
    pub fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.limit).then_some(i)
    }

    /// [`ChunkClaimer::claim`] plus the nanoseconds the claim took —
    /// the scheduling-interaction cost the flight recorder attributes
    /// as claim wait. Only the instrumented (flight-enabled) doacross
    /// path calls this; the plain path keeps the clock-free `claim`.
    pub fn claim_timed(&self) -> (Option<usize>, u64) {
        let start = Instant::now();
        let claimed = self.claim();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        (claimed, ns)
    }

    /// Number of chunks this claimer hands out in total.
    #[must_use]
    pub fn limit(&self) -> usize {
        self.limit
    }
}

/// Run queued region tasks to completion: the last task runs on the
/// calling thread, the rest on scoped threads.
fn run_tasks(mut tasks: Vec<Task<'_>>) {
    let Some(last) = tasks.pop() else { return };
    if tasks.is_empty() {
        last();
        return;
    }
    std::thread::scope(|scope| {
        for task in tasks {
            scope.spawn(task);
        }
        last();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn counts_sync_events() {
        let w = Workers::new(2);
        assert_eq!(w.sync_event_count(), 0);
        w.region(|_| {});
        w.region(|_| {});
        assert_eq!(w.sync_event_count(), 2);
        assert_eq!(w.region_count(), 2);
        w.reset_counters();
        assert_eq!(w.sync_event_count(), 0);
    }

    #[test]
    fn region_runs_spawned_work() {
        let w = Workers::new(3);
        let counter = AtomicUsize::new(0);
        w.region(|scope| {
            for _ in 0..10 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        // all tasks complete before region returns
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn region_returns_value() {
        let w = Workers::serial();
        let v = w.region(|_| 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn processors_reported() {
        assert_eq!(Workers::new(4).processors(), 4);
        assert_eq!(Workers::serial().processors(), 1);
    }

    #[test]
    fn recorded_team_emits_region_spans() {
        let w = Workers::recorded(2);
        w.region(|scope| {
            scope.spawn(|| {});
            scope.spawn(|| {});
        });
        let report = w.recorder().take_report("pool-test", 2);
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].workers, 2);
        assert_eq!(report.sync_events(), 1);
    }

    #[test]
    fn default_team_records_nothing() {
        let w = Workers::new(2);
        w.region(|scope| scope.spawn(|| {}));
        assert!(w.recorder().take_report("none", 2).spans.is_empty());
    }

    #[test]
    #[should_panic(expected = "worker count must be positive")]
    fn zero_workers_panics() {
        let _ = Workers::new(0);
    }

    #[test]
    fn sized_view_shares_counters_and_recorder() {
        let pool = Workers::recorded(4);
        pool.region(|_| {});
        let view = pool.sized_view(2);
        assert_eq!(view.processors(), 2);
        view.region(|scope| scope.spawn(|| {}));
        // Both regions landed on the shared counters...
        assert_eq!(pool.sync_event_count(), 2);
        assert_eq!(view.sync_event_count(), 2);
        // ...and on the shared recorder (region spans carry the view's
        // worker count, not the pool's).
        let report = pool.recorder().take_report("views", 4);
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans[0].workers, 4);
        assert_eq!(report.spans[1].workers, 2);
        // Resetting through the view resets the pool.
        view.reset_counters();
        assert_eq!(pool.sync_event_count(), 0);
    }

    #[test]
    #[should_panic(expected = "worker count must be positive")]
    fn zero_sized_view_panics() {
        let _ = Workers::new(2).sized_view(0);
    }

    #[test]
    fn oversized_view_clamps_to_pool_width() {
        let pool = Workers::new(2);
        let view = pool.sized_view(8);
        assert_eq!(view.processors(), 2);
        assert_eq!(view.requested_processors(), 8);
        // An in-range request is granted as-is and reports no clamp.
        let exact = pool.sized_view(2);
        assert_eq!(exact.processors(), 2);
        assert_eq!(exact.requested_processors(), 2);
        let under = pool.sized_view(1);
        assert_eq!(under.processors(), 1);
        assert_eq!(under.requested_processors(), 1);
    }

    #[test]
    fn views_inherit_and_override_policy() {
        let mut pool = Workers::new(4);
        assert_eq!(pool.policy(), Policy::Static);
        pool.set_policy(Policy::Dynamic { chunk: 2 });
        assert_eq!(pool.sized_view(2).policy(), Policy::Dynamic { chunk: 2 });
        let guided = pool.with_policy(Policy::Guided { min_chunk: 1 });
        assert_eq!(guided.policy(), Policy::Guided { min_chunk: 1 });
        assert_eq!(guided.processors(), 4);
        // Policy views share the pool's counters.
        guided.region(|_| {});
        assert_eq!(pool.sync_event_count(), 1);
    }

    #[test]
    fn views_track_local_sync_events_independently() {
        let pool = Workers::new(2);
        let a = pool.sized_view(1);
        let b = pool.with_policy(Policy::Dynamic { chunk: 1 });
        a.region(|_| {});
        a.region(|_| {});
        b.region(|_| {});
        // Each view attributes exactly its own regions...
        assert_eq!(a.local_sync_event_count(), 2);
        assert_eq!(b.local_sync_event_count(), 1);
        // ...while the shared total sees everything.
        assert_eq!(pool.sync_event_count(), 3);
        assert_eq!(pool.local_sync_event_count(), 0);
        a.reset_counters();
        assert_eq!(a.local_sync_event_count(), 0);
        assert_eq!(b.sync_event_count(), 0);
    }

    #[test]
    fn kernel_view_shares_local_counters() {
        let pool = Workers::new(4);
        let request = pool.sized_view(2);
        let kernel = request.kernel_view(1, Policy::Dynamic { chunk: 1 });
        assert_eq!(kernel.processors(), 1);
        assert_eq!(kernel.policy(), Policy::Dynamic { chunk: 1 });
        request.region(|_| {});
        kernel.region(|_| {});
        // The kernel view bills the *request's* local counter — the
        // property that keeps a request's sync-event delta correct when
        // kernels run under per-kernel tuned views.
        assert_eq!(request.local_sync_event_count(), 2);
        assert_eq!(pool.sync_event_count(), 2);
        // Oversized kernel requests clamp like sized_view.
        let wide = request.kernel_view(16, Policy::Static);
        assert_eq!(wide.processors(), 2);
        assert_eq!(wide.requested_processors(), 16);
    }

    #[test]
    fn claimer_hands_out_each_chunk_once() {
        let claimer = ChunkClaimer::new(5);
        let mut seen = Vec::new();
        while let Some(i) = claimer.claim() {
            seen.push(i);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(claimer.claim(), None);
        assert_eq!(claimer.limit(), 5);
        assert_eq!(ChunkClaimer::new(0).claim(), None);
    }

    #[test]
    fn claimer_is_exact_under_contention() {
        let claimer = ChunkClaimer::new(1000);
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut local = 0usize;
                    while let Some(i) = claimer.claim() {
                        assert!(i < 1000);
                        local += 1;
                    }
                    total.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn default_sized_is_positive() {
        // Whatever the machine or environment, the team must be usable.
        let w = Workers::default_sized();
        assert!(w.processors() >= 1);
        assert!(!w.recorder().is_enabled());
    }
}
