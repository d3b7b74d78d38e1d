//! The `llpd` server: one readiness event loop, one shared doacross
//! pool, and a bounded job queue feeding a sharded executor pool.
//!
//! # Architecture
//!
//! A single **event-loop thread** owns the nonblocking listener and
//! every connection, multiplexed through a hand-declared `poll(2)`
//! binding (see [`crate::evloop`]). Each connection is a small state
//! machine: bytes accumulate in a read buffer, the incremental HTTP
//! parser re-examines the prefix on every readable event, and response
//! bytes drain through a bounded write buffer on writable events.
//! Connections are keep-alive by default (HTTP/1.1 semantics) and
//! serial: one request is in flight per connection, pipelined bytes
//! wait buffered until the current response is written — that is the
//! write-backpressure bound, since a response is never queued behind an
//! unbounded backlog.
//!
//! Cheap queries (`/metrics`, `/v1/model/*`, `/v1/trace/*`, `/v1/tune`)
//! are answered inline on the event loop. Pool-backed work
//! (`/v1/solve`, `/v1/advise`) goes through admission control: a
//! bounded queue in front of **N executor shards**, each a thread
//! owning a disjoint [`Workers::shard_view`] slice of the shared pool
//! with its own span recorder and flight recorder. Executors push
//! completions over a channel and wake the event loop, which writes the
//! response on the requester's connection — or drops it, if the
//! requester hit its deadline or hung up.
//!
//! # Content-addressed reuse
//!
//! Solves are deterministic and worker/schedule-invariant, so identical
//! requests have identical answers. At admission every `/v1/solve` body
//! is canonicalized to a [`ContentKey`] (built from the *parsed* case —
//! JSON key order and whitespace cannot split the cache):
//!
//! * **hit** — the bounded LRU [`SolveCache`] already holds the
//!   pre-rendered result: answered inline, no execution.
//! * **coalesce** — an identical solve is already executing: this
//!   requester parks on the same in-flight entry and the one execution
//!   fans out to every waiter, each with its own `trace_id`.
//! * **miss** — a job is enqueued and the result is cached on
//!   completion.
//! * `"cache": "bypass"` skips all of the above: the solve executes
//!   unconditionally and touches neither the cache nor the in-flight
//!   table (the escape hatch for measuring real execution).
//!
//! Admission control is deliberate back-pressure, not failure: when the
//! queue is full the service answers `429` with a `Retry-After` derived
//! from the **observed drain rate** ([`DrainEstimator`]) applied to the
//! event loop's actual queue depth at rejection time, and each admitted
//! request carries a deadline after which the event loop answers `503`
//! (an executor still finishes the job; the completion is dropped).
//!
//! Shards are panic-proof: a job that panics is contained with
//! [`std::panic::catch_unwind`], every parked waiter gets `500`, the
//! in-flight entry is removed (so the next identical request executes
//! rather than parking forever), and the shard's recorder is reset.
//!
//! Shutdown is graceful: draining flips first (new work gets `503`),
//! every shard finishes everything already admitted, the event loop
//! delivers the final completions, closes idle keep-alive connections,
//! and exits once every connection has flushed.

use crate::api;
use crate::cache::{ContentKey, SolveCache, DEFAULT_CACHE_CAPACITY};
use crate::evloop::{self, Conn, PollFd, ReadOutcome, WakeReceiver, Waker, POLLIN, POLLOUT};
use crate::http::{parse_request_bytes, render_response, Parse, Request, Response, MAX_HEAD_BYTES};
use crate::metrics::{Family, Hist, Metrics, PoolContext, Scalar, Snapshot};
use crate::solvers::{self, AnyCase, MAX_WORKERS};
use crate::telemetry::{self, Windows};
use crate::trace::{TraceEntry, TraceStore, TracedRun};
use llp::obs::json::Json;
use llp::obs::timeline::DEFAULT_EVENT_CAPACITY;
use llp::{FlightRecorder, Recorder, Workers};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};
use tune::TuneDb;

/// Default shard width used when [`ServerConfig::shards`] is 0 and
/// `LLPD_SHARDS` is unset: the pool is cut into slices of this many
/// workers each.
const DEFAULT_SHARD_WIDTH: usize = 2;

/// Completion-time window the [`DrainEstimator`] averages over.
const DRAIN_WINDOW: usize = 8;

/// `Retry-After` ceiling in seconds; a stalled service never asks a
/// client to back off longer than this.
const MAX_RETRY_AFTER_SECS: f64 = 60.0;

/// Hard cap on concurrently open connections; beyond it the listener
/// is simply not polled and the kernel backlog absorbs the burst.
const MAX_CONNECTIONS: usize = 1024;

/// Poll timeout: the granularity of deadline expiry and idle sweeps.
const POLL_TICK_MS: i32 = 25;

/// Lock a mutex, tolerating poison: admission-control state is always
/// valid at rest (push/pop/record are atomic units), so a panic while
/// holding the lock cannot leave it half-updated. Inheriting the data
/// beats wedging every subsequent request on an `unwrap`.
fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker count of the shared pool (the maximum any request can
    /// ask for, capped at [`MAX_WORKERS`]).
    pub workers: usize,
    /// Executor shard count. Each shard owns a
    /// `workers / shards`-wide slice of the pool and executes one job
    /// at a time, so up to `shards` jobs run concurrently. `0` means
    /// auto: the `LLPD_SHARDS` environment variable when set to a
    /// positive integer, else one shard per [`DEFAULT_SHARD_WIDTH`]
    /// workers. Clamped to `1..=workers`.
    pub shards: usize,
    /// Jobs admitted beyond the ones executing; the next is rejected
    /// with 429.
    pub queue_capacity: usize,
    /// Per-request deadline covering queue wait plus compute.
    pub deadline: Duration,
    /// Maximum accepted request-body size.
    pub max_body_bytes: usize,
    /// Content-addressed solve cache capacity in entries; 0 disables
    /// caching (coalescing of identical in-flight solves still
    /// happens).
    pub cache_capacity: usize,
    /// Test hook: when set, every shard locks this mutex after popping
    /// each job and before computing it, so tests can hold the lock to
    /// pin executors "busy" deterministically.
    pub job_gate: Option<Arc<Mutex<()>>>,
    /// Test hook: while `true`, executing a job panics instead of
    /// computing it — exercises the panic-containment path exactly as a
    /// solver bug would.
    pub job_fault: Option<Arc<AtomicBool>>,
    /// Tune database loaded at startup (`llpd --tune-db` /
    /// `LLPD_TUNE_DB`): per-kernel configurations `"schedule": "auto"`
    /// solves resolve against until a `POST /v1/tune` calibration
    /// replaces it. The database names its solver; it seeds that
    /// solver's slot and other solvers start untuned.
    pub tune_db: Option<TuneDb>,
    /// Peak estimated solve footprint in bytes admitted per request
    /// (`llpd --memory-budget` / `LLPD_MEM_BUDGET`): a solve whose
    /// [`solver::SolverSpec::memory_usage_estimate`] exceeds the budget is
    /// rejected with `413` before it touches the cache, the queue, or
    /// the pool. `None` (the default) admits everything.
    pub memory_budget: Option<u64>,
    /// Width of one telemetry window in milliseconds (`/v1/stats`).
    /// `0` disables the windows: no snapshot of the metrics is kept and
    /// `/v1/stats` answers `null`. `/metrics` counts the same either way.
    pub telemetry_window_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: llp::default_worker_count().min(MAX_WORKERS),
            shards: 0,
            queue_capacity: 8,
            deadline: Duration::from_secs(30),
            max_body_bytes: 64 * 1024,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            job_gate: None,
            job_fault: None,
            tune_db: None,
            memory_budget: None,
            telemetry_window_ms: telemetry::DEFAULT_WINDOW_MS,
        }
    }
}

impl ServerConfig {
    /// The shard count [`Server::start`] will actually run with: the
    /// explicit setting, else `LLPD_SHARDS`, else one shard per
    /// [`DEFAULT_SHARD_WIDTH`] workers — always in `1..=workers`.
    #[must_use]
    pub fn resolved_shards(&self) -> usize {
        let auto = || {
            llp::env::positive_usize("LLPD_SHARDS")
                .unwrap_or_else(|| self.workers.max(1) / DEFAULT_SHARD_WIDTH)
        };
        let shards = if self.shards > 0 { self.shards } else { auto() };
        shards.clamp(1, self.workers.max(1))
    }
}

/// Estimates how long a rejected client should wait before retrying,
/// from the observed queue drain rate.
///
/// Completion instants of the last [`DRAIN_WINDOW`] jobs give an
/// average per-job service interval; the estimate for a backlog of `k`
/// jobs is `k` intervals. Two properties matter more than precision:
///
/// * **Stall-awareness**: the time since the *last* completion (or
///   since startup, if nothing has completed) is a lower bound on the
///   per-job interval. A wedged executor therefore produces estimates
///   that grow with the stall instead of repeating a stale average —
///   successive rejections report non-decreasing `Retry-After`.
/// * **Bounds**: always at least 1 second (the HTTP granularity) and at
///   most [`MAX_RETRY_AFTER_SECS`].
#[derive(Debug)]
pub struct DrainEstimator {
    state: Mutex<DrainState>,
}

#[derive(Debug)]
struct DrainState {
    /// Last completion, or construction time before any completion.
    last_event: Instant,
    /// Seconds between consecutive completions, newest last.
    intervals: VecDeque<f64>,
}

impl DrainEstimator {
    /// A fresh estimator; "now" seeds the stall clock.
    #[must_use]
    pub fn new() -> Self {
        Self::starting_at(Instant::now())
    }

    fn starting_at(start: Instant) -> Self {
        Self {
            state: Mutex::new(DrainState {
                last_event: start,
                intervals: VecDeque::with_capacity(DRAIN_WINDOW),
            }),
        }
    }

    /// Record that a job just finished.
    pub fn record_completion(&self) {
        self.record_completion_at(Instant::now());
    }

    fn record_completion_at(&self, now: Instant) {
        let mut s = lock_clean(&self.state);
        let interval = now.duration_since(s.last_event).as_secs_f64();
        if s.intervals.len() == DRAIN_WINDOW {
            s.intervals.pop_front();
        }
        s.intervals.push_back(interval);
        s.last_event = now;
    }

    /// Seconds a client with `jobs_ahead` jobs in front of it should
    /// wait before retrying.
    #[must_use]
    pub fn retry_after_secs(&self, jobs_ahead: usize) -> u64 {
        self.retry_after_secs_at(jobs_ahead, Instant::now())
    }

    fn retry_after_secs_at(&self, jobs_ahead: usize, now: Instant) -> u64 {
        let s = lock_clean(&self.state);
        let stall = now.duration_since(s.last_event).as_secs_f64();
        let average = if s.intervals.is_empty() {
            0.0
        } else {
            s.intervals.iter().sum::<f64>() / s.intervals.len() as f64
        };
        let per_job = average.max(stall);
        let estimate = per_job * jobs_ahead.max(1) as f64;
        estimate.ceil().clamp(1.0, MAX_RETRY_AFTER_SECS) as u64
    }
}

impl Default for DrainEstimator {
    fn default() -> Self {
        Self::new()
    }
}

/// One parked requester: the connection and the per-request token that
/// guards against stale completions (a deadline-expired request's token
/// no longer matches, so its late completion is dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Waiter {
    conn: u64,
    token: u64,
}

enum JobKind {
    Solve {
        case: AnyCase,
        /// `"schedule": "auto"`: overlay the solver's tune database's
        /// per-kernel configurations.
        auto: bool,
    },
    Advise(Box<api::AdviseQuery>),
}

/// Where a job's completion(s) go.
enum JobOrigin {
    /// Reply to exactly this waiter (advise jobs, bypass solves).
    Direct(Waiter),
    /// Reply to every waiter parked in the in-flight table under this
    /// key, and insert the rendered result into the solve cache.
    Keyed(ContentKey),
}

struct Job {
    kind: JobKind,
    origin: JobOrigin,
}

/// One finished job reply, routed back to the event loop.
struct Completion {
    waiter: Waiter,
    response: Response,
}

/// The autotuner's server-side state: which solver, if any, is being
/// calibrated (one calibration at a time across every solver;
/// concurrent requests get 429), one database slot per solver kind —
/// seeded from [`ServerConfig::tune_db`], each replaced by its solver's
/// completed calibrations — and a generation counter the solve-cache
/// keys embed so a recalibration invalidates `auto` entries.
struct TuneState {
    calibrating: Mutex<Option<&'static str>>,
    db: Mutex<HashMap<String, Arc<TuneDb>>>,
    generation: AtomicU64,
}

struct Shared {
    metrics: Metrics,
    pool: Workers,
    shards: usize,
    queue: Mutex<VecDeque<Job>>,
    queue_signal: Condvar,
    draining: AtomicBool,
    drain_rate: DrainEstimator,
    traces: TraceStore,
    tune: TuneState,
    cache: SolveCache,
    /// Coalescing table: canonical key → waiters parked on the one
    /// in-flight execution of that key. An entry exists exactly while
    /// its job is queued or executing; the executor removes it (under
    /// this lock) when fanning out completions, so joining an entry
    /// and removing it cannot interleave.
    inflight: Mutex<HashMap<String, Vec<Waiter>>>,
    completions: mpsc::Sender<Completion>,
    waker: Waker,
    /// Monotone per-process request ids for the access log.
    request_seq: AtomicU64,
    /// Snapshots of `metrics` at the telemetry window boundaries
    /// (`/v1/stats`); `None` when [`ServerConfig::telemetry_window_ms`]
    /// is 0.
    telemetry: Option<Windows>,
    /// Server start instant — the telemetry clock's origin.
    started: Instant,
    config: ServerConfig,
}

impl Shared {
    /// Snapshot a solver's current tune database (cheap Arc clone).
    fn tune_db(&self, kind: &str) -> Option<Arc<TuneDb>> {
        lock_clean(&self.tune.db).get(kind).cloned()
    }

    /// Every metric now, the pool's own counters included.
    fn snapshot(&self) -> Snapshot {
        self.metrics
            .snapshot(&pool_context(&self.pool, self.shards))
    }

    /// Milliseconds since start on the telemetry clock.
    fn clock_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// The `/metrics` values the pool and the shard count own.
fn pool_context(pool: &Workers, shards: usize) -> PoolContext {
    PoolContext {
        pool_workers: pool.processors(),
        executor_shards: shards,
        pool_sync_events: pool.sync_event_count(),
        pool_regions: pool.region_count(),
    }
}

/// A running `llpd` instance; dropping it without calling
/// [`Server::shutdown`] leaves its threads running detached.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    event_loop: Option<thread::JoinHandle<()>>,
    executors: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the event loop and the executor shards, and return.
    ///
    /// # Errors
    /// Propagates bind and waker-setup failures.
    pub fn start(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (waker, wake_rx) = evloop::waker()?;
        let (completions_tx, completions_rx) = mpsc::channel();

        let workers = config.workers.clamp(1, MAX_WORKERS);
        let shards = config.resolved_shards().min(workers);
        let cache_capacity = config.cache_capacity;
        let (metrics, pool) = (Metrics::new(), Workers::new(workers));
        let telemetry = (config.telemetry_window_ms > 0).then(|| {
            let origin = metrics.snapshot(&pool_context(&pool, shards));
            Windows::new(
                config.telemetry_window_ms,
                telemetry::DEFAULT_CAPACITY,
                origin,
            )
        });
        let shared = Arc::new(Shared {
            metrics,
            pool,
            shards,
            queue: Mutex::new(VecDeque::new()),
            queue_signal: Condvar::new(),
            draining: AtomicBool::new(false),
            drain_rate: DrainEstimator::new(),
            traces: TraceStore::default(),
            tune: TuneState {
                calibrating: Mutex::new(None),
                db: Mutex::new(
                    config
                        .tune_db
                        .clone()
                        .map(|db| HashMap::from([(db.solver.clone(), Arc::new(db))]))
                        .unwrap_or_default(),
                ),
                generation: AtomicU64::new(0),
            },
            cache: SolveCache::new(cache_capacity),
            inflight: Mutex::new(HashMap::new()),
            completions: completions_tx,
            waker,
            request_seq: AtomicU64::new(1),
            telemetry,
            started: Instant::now(),
            config,
        });

        let event_loop = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                EventLoop::new(shared, listener, wake_rx, completions_rx).run();
            })
        };
        let executors = (0..shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                // Each shard slice is its own lanes of the pool's one
                // worker team and shares the pool's counters, but owns
                // a private recorder and flight recorder: concurrent
                // jobs never compete for a helper or interleave spans
                // or timelines, and /metrics pool totals stay exact.
                // Jobs on one shard are serial, so each job drains
                // exactly its own flight events.
                let mut slice = shared.pool.shard_view(shard, shards);
                slice.set_recorder(Recorder::enabled());
                slice.set_flight(FlightRecorder::enabled(
                    slice.processors(),
                    DEFAULT_EVENT_CAPACITY,
                ));
                thread::spawn(move || executor_loop(&shared, &slice))
            })
            .collect();

        Ok(Self {
            shared,
            addr,
            event_loop: Some(event_loop),
            executors,
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of executor shards actually running.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shared.shards
    }

    /// Total requests rejected with 429 so far.
    #[must_use]
    pub fn rejected_total(&self) -> u64 {
        self.shared.metrics.get(Scalar::RejectedTotal)
    }

    /// Drain and stop: new work is refused with 503, everything already
    /// admitted completes and its response is written, idle keep-alive
    /// connections are closed, then threads are joined.
    pub fn shutdown(self) {
        let _ = self.shutdown_with_telemetry();
    }

    /// [`Server::shutdown`], returning a final telemetry snapshot after
    /// the drain: the open window is force-sealed (so requests served
    /// moments before the drain are visible) and every sealed window
    /// is included. `llpd` writes this to `--telemetry-out` (or stderr)
    /// on SIGTERM so an operator keeps the last windows of a dying
    /// process.
    pub fn shutdown_with_telemetry(mut self) -> Json {
        // Set under the queue lock: an executor that has just read
        // `draining == false` still holds it until it is waiting, so it
        // cannot miss the wake-up and sleep through the drain.
        {
            let _queue = lock_clean(&self.shared.queue);
            self.shared.draining.store(true, Ordering::SeqCst);
        }
        self.shared.queue_signal.notify_all();
        self.shared.waker.wake();
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
        // Executors are done; wake the loop so it delivers the final
        // completions and closes out.
        self.shared.waker.wake();
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
        // Everything is drained; seal the in-progress window by ticking
        // one full window past "now" so the drain snapshot includes it.
        let shared = &self.shared;
        let series = shared.telemetry.as_ref().map_or(Json::Null, |windows| {
            let past_now = shared
                .clock_ms()
                .saturating_add(shared.config.telemetry_window_ms);
            windows.tick(past_now, || shared.snapshot());
            windows.to_json(usize::MAX)
        });
        Json::object(vec![("event", Json::str("llpd.drain")), ("series", series)])
    }
}

// ------------------------------------------------------------ executors

/// One executor shard: pop admitted jobs and run them on this shard's
/// pool slice until drained.
fn executor_loop(shared: &Arc<Shared>, slice: &Workers) {
    loop {
        let job = {
            let mut queue = lock_clean(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.metrics.set(Scalar::QueueDepth, queue.len() as u64);
                    break job;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .queue_signal
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        shared.metrics.inc(Scalar::ExecutorBusy);
        if let Some(gate) = &shared.config.job_gate {
            // Test hook: block here while a test holds the gate.
            drop(lock_clean(gate));
        }
        let completions = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(shared, slice, &job)
        })) {
            Ok(completions) => completions,
            Err(_) => {
                // A panicking job (solver bug — inputs were validated at
                // admission) must not take the shard down with it. The
                // recorder may hold a half-built span stack and the
                // flight rings partial events; reset and drain so the
                // next job's report and timeline are exactly its own.
                // Every parked waiter gets the 500 and the in-flight
                // entry is removed, so the next identical request
                // executes instead of parking on a dead entry.
                shared.metrics.inc(Scalar::ExecutorPanicsTotal);
                slice.recorder().reset();
                let _ = slice.flight().take_timeline();
                fail_job(
                    shared,
                    &job.origin,
                    &Response::error(500, "internal error: job panicked"),
                )
            }
        };
        shared.metrics.dec(Scalar::ExecutorBusy);
        shared.drain_rate.record_completion();
        for completion in completions {
            // The event loop may already be gone at hard teardown.
            shared.completions.send(completion).ok();
        }
        shared.waker.wake();
    }
}

/// Everyone waiting on this job. For keyed solves this *removes* the
/// in-flight entry — from that point a new identical request starts a
/// fresh execution (or hits the cache, if the result landed there).
fn take_waiters(shared: &Arc<Shared>, origin: &JobOrigin) -> Vec<Waiter> {
    match origin {
        JobOrigin::Direct(waiter) => vec![*waiter],
        JobOrigin::Keyed(key) => lock_clean(&shared.inflight)
            .remove(key.canonical())
            .unwrap_or_default(),
    }
}

fn fail_job(shared: &Arc<Shared>, origin: &JobOrigin, response: &Response) -> Vec<Completion> {
    take_waiters(shared, origin)
        .into_iter()
        .map(|waiter| Completion {
            waiter,
            response: response.clone(),
        })
        .collect()
}

/// Retain the run's flight trace and return the id the response
/// advertises. Each waiter of a coalesced fan-out gets its *own* trace
/// entry and id over the one shared execution, so every client can
/// fetch and correlate independently. Only the handle is stored: the
/// documents are rendered when `GET /v1/trace/{id}` asks ([`route`]),
/// never here on the shard.
fn retain_trace(shared: &Arc<Shared>, traced: &Arc<TracedRun>) -> Option<u64> {
    if traced.run.timeline().is_empty() {
        return None;
    }
    let id = shared.traces.allocate_id();
    shared.traces.insert(TraceEntry {
        id,
        case: traced.run.case().label(),
        run: Arc::clone(traced),
    });
    Some(id)
}

fn execute_job(shared: &Arc<Shared>, slice: &Workers, job: &Job) -> Vec<Completion> {
    if let Some(fault) = &shared.config.job_fault {
        assert!(
            !fault.load(Ordering::SeqCst),
            "injected job fault (test hook)"
        );
    }
    match &job.kind {
        JobKind::Solve { case, auto } => {
            let spec = case.spec();
            let view = slice.sized_view(spec.workers());
            // "auto": overlay the solver's tune database's per-kernel
            // configurations. The schedules only reorder work within
            // each doacross region, so results stay bit-exact with the
            // default path — the overlay changes cost, never answers.
            let db = if *auto {
                shared.tune_db(spec.kind())
            } else {
                None
            };
            let map = db.as_ref().map(|d| d.schedule_map());
            // Tuned per-kernel widths overlay the case-level width the
            // same way tuned schedules overlay the case-level policy:
            // both change only the performance shape, never the answer.
            let widths = db.as_ref().map(|d| d.width_map());
            let tuned = if *auto {
                api::tuned_resolution(db.as_deref())
            } else {
                llp::obs::json::Json::Null
            };
            match case.run(&view, map.as_ref(), widths.as_ref()) {
                Ok(run) => {
                    // Where the time went, derived once: the counters
                    // and every waiter's trace entry share the one handle.
                    let traced = Arc::new(TracedRun::new(run));
                    let TracedRun { run, attr, kernels } = &*traced;
                    shared
                        .metrics
                        .job_done(run.sync_events(), run.report().total_seconds());
                    shared.metrics.add(Scalar::ObsSyncNsTotal, attr.sync_ns());
                    shared.metrics.add(Scalar::ObsBusyNsTotal, attr.busy_ns());
                    for k in kernels {
                        let seconds = k.wall_ns as f64 / 1e9;
                        shared
                            .metrics
                            .add_seconds(Family::KernelSeconds, &k.kernel, seconds);
                    }
                    shared.metrics.bump(Family::SolvesBySolver, spec.kind());
                    shared.metrics.bump(
                        Family::SolvesByVectorWidth,
                        &spec.vector_width().to_string(),
                    );
                    shared.metrics.bump(
                        Family::SolvesBySchedule,
                        if *auto {
                            "auto"
                        } else {
                            spec.schedule().name()
                        },
                    );
                    if let Some(zones) = run.output().zone_dispatch() {
                        shared
                            .metrics
                            .zone_job(zones.shards, zones.zone_tasks, zones.peak_ready);
                    }
                    // One render of what every copy of the body shares;
                    // each copy adds its own trace_id/tuned/cache tail.
                    let body = api::SolveBody::new(&**run);
                    match &job.origin {
                        JobOrigin::Direct(waiter) => {
                            let trace_id = retain_trace(shared, &traced);
                            vec![Completion {
                                waiter: *waiter,
                                response: Response::ok(body.finish(trace_id, tuned, "bypass"))
                                    .with_trace_id(trace_id),
                            }]
                        }
                        JobOrigin::Keyed(key) => {
                            // Cache first, then take the waiters: a new
                            // identical request arriving in between hits
                            // the cache instead of duplicating work.
                            // The cached body is rendered with a null
                            // trace_id and a "hit" marker — a hit serves
                            // no fresh trace.
                            let cached = body.finish(None, tuned.clone(), "hit");
                            let evicted = shared.cache.insert(key, Arc::new(cached));
                            shared
                                .metrics
                                .cache_evicted(evicted as u64, shared.cache.len());
                            take_waiters(shared, &job.origin)
                                .into_iter()
                                .map(|waiter| {
                                    let trace_id = retain_trace(shared, &traced);
                                    Completion {
                                        waiter,
                                        response: Response::ok(body.finish(
                                            trace_id,
                                            tuned.clone(),
                                            "miss",
                                        ))
                                        .with_trace_id(trace_id),
                                    }
                                })
                                .collect()
                        }
                    }
                }
                // Validation happened at admission; anything left is an
                // internal fault.
                Err(msg) => fail_job(shared, &job.origin, &Response::error(500, &msg)),
            }
        }
        JobKind::Advise(query) => {
            shared.metrics.inc(Scalar::JobsTotal);
            // Measured tune-db entries overlay the analytic advice —
            // the response reports both and their (dis)agreement.
            let measured = shared
                .tune_db(solvers::ADVISE_KIND)
                .map_or_else(Vec::new, |db| db.measured_choices());
            let advice = query
                .advisor
                .advise_with_measured(&query.reports, &measured);
            let zone_level = query.zones.map_or(llp::obs::json::Json::Null, |zones| {
                api::zone_level_advice(zones, &query.reports, &query.advisor)
            });
            let response = Response::ok(api::advise_response(&advice, zone_level).to_string());
            take_waiters(shared, &job.origin)
                .into_iter()
                .map(|waiter| Completion {
                    waiter,
                    response: response.clone(),
                })
                .collect()
        }
    }
}

// ----------------------------------------------------------- event loop

/// A request parked on its connection while an executor computes.
struct PendingReq {
    token: u64,
    deadline: Instant,
    started: Instant,
    req_id: u64,
    keep_alive: bool,
    method: String,
    path: String,
}

struct ConnState {
    conn: Conn,
    pending: Option<PendingReq>,
    idle_since: Instant,
}

/// What `route` decided: answer now, or queue a job.
enum RouteOutcome {
    Inline(Response),
    Submit(JobKind, /* bypass: */ bool),
}

struct EventLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    wake_rx: WakeReceiver,
    completions: mpsc::Receiver<Completion>,
    conns: HashMap<u64, ConnState>,
    next_conn_id: u64,
    next_token: u64,
    /// Read-buffer cap: any legal request (head + declared body) fits,
    /// with one read chunk of slack for pipelined follow-ups.
    read_cap: usize,
    /// Idle connections (including half-sent requests) are closed after
    /// this long; parked requests are governed by the job deadline
    /// instead.
    io_timeout: Duration,
}

impl EventLoop {
    fn new(
        shared: Arc<Shared>,
        listener: TcpListener,
        wake_rx: WakeReceiver,
        completions: mpsc::Receiver<Completion>,
    ) -> Self {
        let read_cap = MAX_HEAD_BYTES + shared.config.max_body_bytes + 4096;
        let io_timeout = shared.config.deadline + Duration::from_secs(5);
        Self {
            shared,
            listener,
            wake_rx,
            completions,
            conns: HashMap::new(),
            next_conn_id: 1,
            next_token: 1,
            read_cap,
            io_timeout,
        }
    }

    fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    fn run(&mut self) {
        loop {
            if self.draining() {
                self.close_idle_for_drain();
                if self.conns.is_empty() {
                    return;
                }
            }
            // Build the poll set: listener (unless draining or at the
            // connection cap), the waker, and every connection with an
            // interest. A connection waiting on a job or holding a
            // full read buffer registers nothing — that is the
            // backpressure: its socket simply stops being read.
            let mut fds = Vec::with_capacity(self.conns.len() + 2);
            let listener_slot = if !self.draining() && self.conns.len() < MAX_CONNECTIONS {
                fds.push(PollFd::new(evloop::raw_fd(&self.listener), POLLIN));
                Some(0)
            } else {
                None
            };
            let wake_slot = fds.len();
            fds.push(PollFd::new(self.wake_rx.fd(), POLLIN));
            let mut conn_slots: Vec<(usize, u64)> = Vec::new();
            for (&id, state) in &self.conns {
                let mut events: i16 = 0;
                if state.conn.has_pending_write() {
                    events |= POLLOUT;
                } else if state.pending.is_none()
                    && !state.conn.close_after_write
                    && state.conn.read_buf.len() < self.read_cap
                {
                    events |= POLLIN;
                }
                if events != 0 {
                    conn_slots.push((fds.len(), id));
                    fds.push(PollFd::new(state.conn.fd(), events));
                }
            }
            if evloop::wait(&mut fds, POLL_TICK_MS).is_err() {
                // poll(2) itself failing is unrecoverable enough that
                // spinning would only burn a core; nap instead.
                thread::sleep(Duration::from_millis(POLL_TICK_MS as u64));
            }
            if fds[wake_slot].ready(POLLIN) {
                self.wake_rx.drain();
            }
            self.deliver_completions();
            if let Some(slot) = listener_slot {
                if fds[slot].ready(POLLIN) {
                    self.accept_ready();
                }
            }
            for (slot, id) in conn_slots {
                let revents = fds[slot];
                self.service_conn(id, revents);
            }
            self.expire_deadlines();
            self.sweep_idle();
            self.tick_telemetry();
        }
    }

    /// Advance the telemetry clock on the poll tick: seal the windows
    /// that have elapsed.
    fn tick_telemetry(&mut self) {
        let shared = &self.shared;
        if let Some(windows) = &shared.telemetry {
            windows.tick(shared.clock_ms(), || shared.snapshot());
        }
    }

    fn alloc_token(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        token
    }

    fn close(&mut self, id: u64) {
        if self.conns.remove(&id).is_some() {
            self.shared.metrics.dec(Scalar::OpenConnections);
        }
    }

    /// Drain phase: hang up every connection with nothing in flight.
    fn close_idle_for_drain(&mut self) {
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, s)| s.pending.is_none() && !s.conn.has_pending_write())
            .map(|(&id, _)| id)
            .collect();
        for id in idle {
            self.close(id);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            if self.conns.len() >= MAX_CONNECTIONS {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.shared.metrics.inc(Scalar::OpenConnections);
                    match Conn::new(stream) {
                        Ok(conn) => {
                            let id = self.next_conn_id;
                            self.next_conn_id += 1;
                            self.conns.insert(
                                id,
                                ConnState {
                                    conn,
                                    pending: None,
                                    idle_since: Instant::now(),
                                },
                            );
                        }
                        Err(_) => self.shared.metrics.dec(Scalar::OpenConnections),
                    }
                }
                Err(_) => return,
            }
        }
    }

    fn service_conn(&mut self, id: u64, revents: PollFd) {
        if revents.ready(POLLOUT) {
            let Some(state) = self.conns.get_mut(&id) else {
                return;
            };
            if state.conn.has_pending_write() {
                match state.conn.flush_some() {
                    Ok(true) => {
                        if state.conn.close_after_write {
                            self.close(id);
                            return;
                        }
                        state.idle_since = Instant::now();
                        // The response is out; a pipelined request may
                        // already be buffered.
                        self.try_advance(id);
                    }
                    Ok(false) => {}
                    Err(_) => {
                        self.close(id);
                        return;
                    }
                }
            }
        }
        if revents.ready(POLLIN) {
            let Some(state) = self.conns.get_mut(&id) else {
                return;
            };
            // Guard re-checked here: the fallback `wait` marks every
            // registered descriptor ready, and a POLLOUT registration
            // may coincide with error/hangup bits.
            if state.pending.is_some()
                || state.conn.close_after_write
                || state.conn.has_pending_write()
            {
                return;
            }
            match state.conn.read_some(self.read_cap) {
                ReadOutcome::Progress => {
                    state.idle_since = Instant::now();
                    self.try_advance(id);
                }
                ReadOutcome::Idle => {}
                ReadOutcome::Eof => {
                    if state.conn.read_buf.is_empty() {
                        // Orderly keep-alive hangup between requests.
                        self.close(id);
                    } else {
                        // The peer quit mid-request: same answer the
                        // one-shot parser gave on a truncated stream.
                        self.shared.metrics.request("other");
                        let response = Response::error(400, "connection closed mid-request");
                        self.finish_request(id, response, false, Instant::now(), None);
                    }
                }
                ReadOutcome::Failed => self.close(id),
            }
        }
    }

    /// Parse-and-dispatch loop: frame as many buffered requests as the
    /// connection's serial-response discipline allows (one response
    /// must fully flush before the next request is considered).
    fn try_advance(&mut self, id: u64) {
        loop {
            let Some(state) = self.conns.get_mut(&id) else {
                return;
            };
            if state.pending.is_some()
                || state.conn.has_pending_write()
                || state.conn.close_after_write
            {
                return;
            }
            if state.conn.read_buf.is_empty() {
                return;
            }
            match parse_request_bytes(&state.conn.read_buf, self.shared.config.max_body_bytes) {
                Ok(Parse::Partial) => return,
                Err(e) => {
                    // Framing failure: answer and close, exactly like
                    // the one-shot path did.
                    self.shared.metrics.request("other");
                    let response = Response::error(e.status, &e.message);
                    self.finish_request(id, response, false, Instant::now(), None);
                    return;
                }
                Ok(Parse::Complete(request, consumed)) => {
                    state.conn.consume(consumed);
                    let started = Instant::now();
                    self.handle_request(id, request, started);
                }
            }
        }
    }

    fn handle_request(&mut self, id: u64, request: Request, started: Instant) {
        let req_id = self.shared.request_seq.fetch_add(1, Ordering::Relaxed);
        let log = Some((req_id, request.method.clone(), request.path.clone()));
        match route(&request, &self.shared) {
            RouteOutcome::Inline(response) => {
                self.finish_request(id, response, request.keep_alive, started, log);
            }
            RouteOutcome::Submit(kind, bypass) => {
                self.admit(id, &request, kind, bypass, started, req_id);
            }
        }
    }

    /// `Retry-After` for a rejection: the event loop's actual queue
    /// depth at rejection time plus every job currently executing is
    /// ahead of the client, whatever number of keep-alive connections
    /// those jobs arrived on.
    fn retry_after(&self, queued: usize) -> u64 {
        let ahead = queued + self.shared.metrics.get(Scalar::ExecutorBusy) as usize;
        self.shared.drain_rate.retry_after_secs(ahead)
    }

    /// Admission control for pool-backed work: cache lookup, coalesce,
    /// or enqueue — then park the requester on its connection.
    fn admit(
        &mut self,
        id: u64,
        request: &Request,
        kind: JobKind,
        bypass: bool,
        started: Instant,
        req_id: u64,
    ) {
        let log = Some((req_id, request.method.clone(), request.path.clone()));
        if self.draining() {
            let queued = lock_clean(&self.shared.queue).len();
            let response =
                Response::error(503, "shutting down").with_retry_after(self.retry_after(queued));
            self.finish_request(id, response, request.keep_alive, started, log);
            return;
        }
        // Memory-budget admission control: an over-budget solve is
        // refused with 413 before it can touch the cache, coalesce, or
        // occupy a queue slot — bypass solves included. The estimate is
        // the solver's own formula over the validated case, so the
        // check costs arithmetic, never pool work.
        if let JobKind::Solve { case, .. } = &kind {
            if let Some(budget) = self.shared.config.memory_budget {
                let estimated = case.spec().memory_usage_estimate();
                if estimated > budget {
                    self.shared.metrics.inc(Scalar::SolvesRejectedMemoryTotal);
                    let body = Json::object(vec![
                        (
                            "error",
                            Json::str("estimated solve memory exceeds the server budget"),
                        ),
                        ("estimated_bytes", Json::from_u64(estimated)),
                        ("budget_bytes", Json::from_u64(budget)),
                    ]);
                    let response = Response {
                        status: 413,
                        body: body.to_string(),
                        content_type: "application/json",
                        retry_after: None,
                        trace_id: None,
                    };
                    self.finish_request(id, response, request.keep_alive, started, log);
                    return;
                }
            }
        }
        let key = match &kind {
            JobKind::Solve { case, auto } if !bypass => {
                let generation = self.shared.tune.generation.load(Ordering::SeqCst);
                let key = ContentKey::for_case(case, *auto, generation);
                if let Some(body) = self.shared.cache.get(&key) {
                    self.shared.metrics.inc(Scalar::CacheHitsTotal);
                    let response = Response::ok((*body).clone());
                    self.finish_request(id, response, request.keep_alive, started, log);
                    return;
                }
                Some(key)
            }
            JobKind::Solve { .. } => {
                self.shared.metrics.inc(Scalar::CacheBypassTotal);
                None
            }
            JobKind::Advise(_) => None,
        };
        let waiter = Waiter {
            conn: id,
            token: self.alloc_token(),
        };
        let origin = key.map_or(JobOrigin::Direct(waiter), JobOrigin::Keyed);
        self.enqueue(request, kind, origin, waiter, started, req_id);
    }

    /// Bounded-queue admission, stated once for both origins: sample
    /// the depth, answer 429 + `Retry-After` when full, else push,
    /// publish the depth, wake an executor and park the requester. A
    /// keyed job first looks for an identical solve queued or
    /// executing and parks on its in-flight entry instead; otherwise
    /// it reserves its own entry under the in-flight lock, held until
    /// the job is queued (lock order inflight → queue; the executors
    /// take them singly, and remove entries under the same lock, so a
    /// join cannot race a fan-out).
    fn enqueue(
        &mut self,
        request: &Request,
        kind: JobKind,
        origin: JobOrigin,
        waiter: Waiter,
        started: Instant,
        req_id: u64,
    ) {
        let shared = Arc::clone(&self.shared);
        let mut inflight = match &origin {
            JobOrigin::Direct(_) => None,
            JobOrigin::Keyed(key) => {
                let mut inflight = lock_clean(&shared.inflight);
                if let Some(waiters) = inflight.get_mut(key.canonical()) {
                    waiters.push(waiter);
                    drop(inflight);
                    shared.metrics.inc(Scalar::CacheCoalescedTotal);
                    self.park(waiter.conn, waiter.token, request, started, req_id);
                    return;
                }
                Some(inflight)
            }
        };
        let mut queue = lock_clean(&shared.queue);
        shared
            .metrics
            .observe(Hist::QueueDepths, queue.len() as f64);
        if queue.len() >= shared.config.queue_capacity {
            let queued = queue.len();
            drop(queue);
            drop(inflight);
            let response =
                Response::error(429, "queue full").with_retry_after(self.retry_after(queued));
            let log = Some((req_id, request.method.clone(), request.path.clone()));
            self.finish_request(waiter.conn, response, request.keep_alive, started, log);
            return;
        }
        if let (Some(inflight), JobOrigin::Keyed(key)) = (&mut inflight, &origin) {
            inflight.insert(key.canonical().to_string(), vec![waiter]);
            shared.metrics.inc(Scalar::CacheMissesTotal);
        }
        queue.push_back(Job { kind, origin });
        shared.metrics.set(Scalar::QueueDepth, queue.len() as u64);
        drop(queue);
        drop(inflight);
        shared.queue_signal.notify_one();
        self.park(waiter.conn, waiter.token, request, started, req_id);
    }

    fn park(&mut self, id: u64, token: u64, request: &Request, started: Instant, req_id: u64) {
        if let Some(state) = self.conns.get_mut(&id) {
            state.pending = Some(PendingReq {
                token,
                deadline: started + self.shared.config.deadline,
                started,
                req_id,
                keep_alive: request.keep_alive,
                method: request.method.clone(),
                path: request.path.clone(),
            });
        }
    }

    /// Queue a response on the connection, log it, and opportunistically
    /// flush. `log` is `(req_id, method, path)` — `None` for framing
    /// errors that never had a routed request.
    fn finish_request(
        &mut self,
        id: u64,
        response: Response,
        keep_alive: bool,
        started: Instant,
        log: Option<(u64, String, String)>,
    ) {
        let status = response.status;
        let elapsed_ms = started.elapsed().as_secs_f64() * 1_000.0;
        self.shared.metrics.response(status);
        self.shared.metrics.observe(Hist::LatencyMs, elapsed_ms);
        // Structured NDJSON access line: parse/queue/compute end to
        // end, one JSON object per request (gated by LLPD_LOG).
        let (req_id, method, path) = log.unwrap_or_else(|| {
            (
                self.shared.request_seq.fetch_add(1, Ordering::Relaxed),
                "-".to_string(),
                "-".to_string(),
            )
        });
        crate::log::access(
            req_id,
            &method,
            &path,
            status,
            elapsed_ms,
            response.trace_id,
        );
        let keep = keep_alive && !self.draining();
        let Some(state) = self.conns.get_mut(&id) else {
            return;
        };
        state.conn.queue_write(&render_response(&response, keep));
        state.conn.close_after_write = !keep;
        state.idle_since = Instant::now();
        match state.conn.flush_some() {
            Ok(true) => {
                if state.conn.close_after_write {
                    self.close(id);
                }
            }
            Ok(false) => {}
            Err(_) => self.close(id),
        }
    }

    fn deliver_completions(&mut self) {
        while let Ok(Completion { waiter, response }) = self.completions.try_recv() {
            let Some(state) = self.conns.get_mut(&waiter.conn) else {
                continue; // requester hung up
            };
            let stale = state
                .pending
                .as_ref()
                .is_none_or(|p| p.token != waiter.token);
            if stale {
                continue; // requester hit its deadline; drop the reply
            }
            let p = state.pending.take().expect("matched above");
            self.finish_request(
                waiter.conn,
                response,
                p.keep_alive,
                p.started,
                Some((p.req_id, p.method, p.path)),
            );
            // A pipelined follow-up may already be buffered.
            self.try_advance(waiter.conn);
        }
    }

    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, s)| s.pending.as_ref().is_some_and(|p| p.deadline <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let Some(state) = self.conns.get_mut(&id) else {
                continue;
            };
            let Some(p) = state.pending.take() else {
                continue;
            };
            self.shared.metrics.inc(Scalar::TimeoutsTotal);
            let queued = lock_clean(&self.shared.queue).len();
            let response = Response::error(503, "deadline exceeded")
                .with_retry_after(self.retry_after(queued));
            self.finish_request(
                id,
                response,
                p.keep_alive,
                p.started,
                Some((p.req_id, p.method, p.path)),
            );
        }
    }

    /// Close connections that have sat silent too long: a half-sent
    /// request gets the same 408 the blocking read timeout produced,
    /// an idle keep-alive connection is just hung up.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, s)| {
                s.pending.is_none()
                    && !s.conn.has_pending_write()
                    && now.duration_since(s.idle_since) > self.io_timeout
            })
            .map(|(&id, _)| id)
            .collect();
        for id in idle {
            let has_partial = self
                .conns
                .get(&id)
                .is_some_and(|s| !s.conn.read_buf.is_empty());
            if has_partial {
                self.shared.metrics.request("other");
                let response = Response::error(408, "timed out reading request");
                self.finish_request(id, response, false, Instant::now(), None);
            } else {
                self.close(id);
            }
        }
    }
}

// -------------------------------------------------------------- routing

fn route(request: &Request, shared: &Arc<Shared>) -> RouteOutcome {
    let (endpoint, expect_post) = match request.path.as_str() {
        "/metrics" => ("metrics", false),
        "/v1/health" => ("health", false),
        "/v1/stats" => ("stats", false),
        "/v1/solve" => ("solve", true),
        "/v1/advise" => ("advise", true),
        // /v1/tune speaks both verbs: POST starts a calibration, GET
        // polls its status. Expecting whichever of the two arrived
        // still rejects every other method with 405.
        "/v1/tune" => ("tune", request.method == "POST"),
        p if p.starts_with("/v1/model/") => ("model", false),
        p if p.starts_with("/v1/trace/") => ("trace", false),
        _ => ("other", false),
    };
    shared.metrics.request(endpoint);
    if endpoint == "other" {
        return RouteOutcome::Inline(Response::error(
            404,
            &format!("no route for {}", request.path),
        ));
    }
    let expected = if expect_post { "POST" } else { "GET" };
    if request.method != expected {
        return RouteOutcome::Inline(Response::error(
            405,
            &format!("{} requires {expected}", request.path),
        ));
    }

    match endpoint {
        "metrics" => RouteOutcome::Inline(metrics_response(request, shared)),
        "health" => RouteOutcome::Inline(health_response(shared)),
        "stats" => RouteOutcome::Inline(match api::parse_stats_query(&request.query) {
            Err(msg) => Response::error(400, &msg),
            Ok(newest) => {
                let telemetry = shared.telemetry.as_ref();
                let series = telemetry.map_or(Json::Null, |windows| windows.to_json(newest));
                Response::ok(api::stats_response(series, telemetry.is_some()).to_string())
            }
        }),
        "model" => {
            let kind = &request.path["/v1/model/".len()..];
            RouteOutcome::Inline(match api::model_response(kind, &request.query) {
                Ok(json) => Response::ok(json.to_string()),
                Err(msg) => Response::error(400, &msg),
            })
        }
        "trace" => {
            let raw = &request.path["/v1/trace/".len()..];
            RouteOutcome::Inline(match raw.parse::<u64>() {
                Err(_) => Response::error(400, "trace id must be a non-negative integer"),
                Ok(id) => match shared.traces.get(id) {
                    None => {
                        Response::error(404, &format!("no trace {id} (evicted or never existed)"))
                    }
                    // The store retains the run; the document asked for
                    // is rendered here, for the reader who did come.
                    Some(entry) => match request.query.as_str() {
                        "" => Response::ok(api::trace_attribution(&entry.run, id).to_string()),
                        "trace=chrome" => Response::ok(api::trace_chrome(&entry.run).to_string()),
                        other => Response::error(
                            400,
                            &format!("unknown query `{other}` (use ?trace=chrome)"),
                        ),
                    },
                },
            })
        }
        "solve" => {
            let default_workers = shared.pool.processors().min(MAX_WORKERS);
            match api::parse_solve_body(&request.body, default_workers) {
                Ok(req) => RouteOutcome::Submit(
                    JobKind::Solve {
                        case: req.case,
                        auto: req.auto,
                    },
                    req.bypass,
                ),
                Err(msg) => RouteOutcome::Inline(Response::error(400, &msg)),
            }
        }
        "tune" => RouteOutcome::Inline(if request.method == "GET" {
            match api::parse_tune_query(&request.query) {
                Err(msg) => Response::error(400, &msg),
                Ok(solver) => {
                    // Flag before slot: a finishing calibration fills the
                    // slot and then clears the flag, so a status other
                    // than `calibrating` always comes with its result.
                    let calibrating = *lock_clean(&shared.tune.calibrating) == Some(solver);
                    let db = shared.tune_db(solver);
                    let status = if calibrating {
                        "calibrating"
                    } else if db.is_some() {
                        "ready"
                    } else {
                        "idle"
                    };
                    Response::ok(
                        api::tune_status_response(solver, status, db.as_deref()).to_string(),
                    )
                }
            }
        } else {
            start_calibration(shared, &request.body)
        }),
        "advise" => match api::parse_advise_body(&request.body) {
            Ok(query) => RouteOutcome::Submit(JobKind::Advise(Box::new(query)), false),
            Err(msg) => RouteOutcome::Inline(Response::error(400, &msg)),
        },
        // The match above covers every routed endpoint; answer a clean
        // 500 rather than panicking the event loop if routing and
        // dispatch ever drift apart.
        _ => RouteOutcome::Inline(Response::error(500, "internal error: unroutable endpoint")),
    }
}

/// `GET /metrics`: Prometheus text exposition by default, the JSON
/// form via `?format=json` or an `Accept: application/json` header.
/// `?format=prometheus` forces the text form regardless of `Accept`.
fn metrics_response(request: &Request, shared: &Arc<Shared>) -> Response {
    let json = match request.query.as_str() {
        "format=json" => true,
        "format=prometheus" => false,
        "" => request.accept.contains("application/json"),
        other => {
            return Response::error(
                400,
                &format!("unknown query `{other}` (use ?format=json or ?format=prometheus)"),
            )
        }
    };
    let snapshot = shared.snapshot();
    if json {
        Response::ok(snapshot.to_json().to_string())
    } else {
        Response::prometheus(snapshot.to_prometheus())
    }
}

/// `GET /v1/health`: liveness (`ok` or `draining`) and the telemetry
/// clock.
fn health_response(shared: &Arc<Shared>) -> Response {
    let body = api::health_response(
        shared.draining.load(Ordering::SeqCst),
        shared.telemetry.is_some(),
        shared.telemetry.as_ref().map_or(0, Windows::windows_sealed),
    );
    Response::ok(body.to_string())
}

/// `POST /v1/tune`: start a bounded background calibration.
///
/// At most one calibration runs at a time — a second request while one
/// is in flight gets `429`. The calibration runs on a *dedicated*
/// shard-width slice of the pool (its own thread, recorder, and flight
/// rings — `calibrate_solver` instruments its own view), so the
/// executor shards keep serving while it measures. With the `job_gate`
/// test hook installed the calibration honors the gate before
/// starting, so tests can pin it mid-flight; the hook changes nothing
/// about how winners are selected. A completed calibration bumps the
/// tune generation, which invalidates every cached `auto` solve (their
/// content keys embed the generation).
fn start_calibration(shared: &Arc<Shared>, body: &str) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::error(503, "shutting down");
    }
    let req = match api::parse_tune_body(body) {
        Ok(req) => req,
        Err(msg) => return Response::error(400, &msg),
    };
    {
        let mut calibrating = lock_clean(&shared.tune.calibrating);
        if calibrating.is_some() {
            return Response::error(429, "calibration already running").with_retry_after(1);
        }
        *calibrating = Some(req.solver);
    }
    let started = api::tune_started_response(req.solver, &req.spec);
    let api::TuneRequest { solver, spec } = req;
    let shared = Arc::clone(shared);
    thread::spawn(move || {
        if let Some(gate) = &shared.config.job_gate {
            drop(lock_clean(gate));
        }
        let width = (shared.pool.processors() / shared.shards).max(1);
        let slice = shared.pool.sized_view(width);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (solvers::known(solver)?.calibrate)(&slice, &spec)
        }));
        match outcome {
            Ok(Ok(db)) => {
                lock_clean(&shared.tune.db).insert(db.solver.clone(), Arc::new(db));
                shared.tune.generation.fetch_add(1, Ordering::SeqCst);
            }
            Ok(Err(msg)) => eprintln!("llpd: calibration failed: {msg}"),
            Err(_) => eprintln!("llpd: calibration panicked"),
        }
        *lock_clean(&shared.tune.calibrating) = None;
    });
    Response::ok(started.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp::obs::attr::{kernel_overheads, KernelOverhead};
    use llp::obs::chrome::chrome_trace_with_summary;
    use llp::obs::AttributionReport;

    /// What the event loop writes for an inline `GET`.
    fn inline_get(shared: &Arc<Shared>, path: &str, query: &str) -> Response {
        let request = Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: query.to_string(),
            body: String::new(),
            accept: String::new(),
            keep_alive: false,
        };
        match route(&request, shared) {
            RouteOutcome::Inline(response) => response,
            RouteOutcome::Submit(..) => panic!("{path} is answered inline"),
        }
    }

    /// The store keeps the run; what `GET /v1/trace/{id}` serves must be
    /// the documents of *that* run and id — here rendered a second time,
    /// straight from the run's timeline and span report.
    #[test]
    fn trace_documents_on_demand_are_the_direct_renderings() {
        let server = Server::start(ServerConfig {
            workers: 2,
            shards: 1,
            ..ServerConfig::default()
        })
        .expect("bind");
        let shared = &server.shared;
        // A shard's slice, built as `Server::start` builds them; the
        // server's own shard sits idle throughout.
        let mut slice = shared.pool.shard_view(0, 1);
        slice.set_recorder(Recorder::enabled());
        slice.set_flight(FlightRecorder::enabled(2, DEFAULT_EVENT_CAPACITY));

        for body in [
            r#"{"zones": 2, "steps": 2, "schedule": "dynamic", "chunk": 2}"#,
            r#"{"solver": "fdtd", "size": 32, "steps": 4, "schedule": "dynamic", "chunk": 1}"#,
        ] {
            let job = Job {
                kind: JobKind::Solve {
                    case: api::parse_solve_body(body, 2).unwrap().case,
                    auto: false,
                },
                origin: JobOrigin::Direct(Waiter { conn: 0, token: 0 }),
            };
            let completions = execute_job(shared, &slice, &job);
            let id = completions[0].response.trace_id.expect("a flight trace");
            let entry = shared.traces.get(id).expect("retained");
            assert_eq!(entry.case, entry.run.run.case().label());

            let run = &*entry.run.run;
            let attr = AttributionReport::from_timeline(run.timeline());
            let kernels = kernel_overheads(run.report(), &attr);
            let attribution = Json::object(vec![
                ("trace_id", Json::from_u64(id)),
                ("case", Json::str(&run.case().label())),
                ("attribution", attr.to_json()),
                (
                    "kernels",
                    Json::Array(kernels.iter().map(KernelOverhead::to_json).collect()),
                ),
            ]);
            let chrome = chrome_trace_with_summary(run.timeline(), &attr);
            assert!(chrome.to_string().contains(r#""name":"claim""#), "{body}");

            let path = format!("/v1/trace/{id}");
            for _ in 0..2 {
                let served = inline_get(shared, &path, "");
                assert_eq!((served.status, served.body), (200, attribution.to_string()));
                let served = inline_get(shared, &path, "trace=chrome");
                assert_eq!((served.status, served.body), (200, chrome.to_string()));
            }
        }
        server.shutdown();
    }

    #[test]
    fn shard_resolution_clamps_and_defaults() {
        let config = |workers, shards| ServerConfig {
            workers,
            shards,
            ..ServerConfig::default()
        };
        // Explicit counts are honored but clamped to the pool width.
        assert_eq!(config(8, 4).resolved_shards(), 4);
        assert_eq!(config(2, 64).resolved_shards(), 2);
        assert_eq!(config(1, 3).resolved_shards(), 1);
        // Auto: one shard per DEFAULT_SHARD_WIDTH workers, at least 1.
        // (LLPD_SHARDS is not set in the test environment.)
        assert_eq!(config(8, 0).resolved_shards(), 4);
        assert_eq!(config(1, 0).resolved_shards(), 1);
    }

    #[test]
    fn drain_estimate_is_monotone_under_a_stall() {
        let t0 = Instant::now();
        let est = DrainEstimator::starting_at(t0);
        // A healthy phase: four jobs completing one second apart.
        for i in 1..=4 {
            est.record_completion_at(t0 + Duration::from_secs(i));
        }
        let healthy = est.retry_after_secs_at(2, t0 + Duration::from_secs(4));
        assert_eq!(healthy, 2, "two jobs ahead at ~1 s/job");
        // Then the executor stalls: no completions, queries drift out.
        let stalled: Vec<u64> = [6u64, 9, 14, 30]
            .iter()
            .map(|&s| est.retry_after_secs_at(2, t0 + Duration::from_secs(s)))
            .collect();
        for pair in stalled.windows(2) {
            assert!(pair[0] <= pair[1], "estimates shrank during a stall");
        }
        assert!(stalled[0] >= healthy);
        // The stall term dominates the stale 1 s/job average.
        assert!(stalled[3] >= 26 * 2 - 1);
    }

    #[test]
    fn drain_estimate_stays_bounded() {
        let t0 = Instant::now();
        let est = DrainEstimator::starting_at(t0);
        // Nothing observed yet: minimum one second.
        assert_eq!(est.retry_after_secs_at(0, t0), 1);
        assert_eq!(est.retry_after_secs_at(100, t0), 1);
        // A very fast drain still answers at least 1.
        est.record_completion_at(t0 + Duration::from_millis(1));
        est.record_completion_at(t0 + Duration::from_millis(2));
        assert_eq!(est.retry_after_secs_at(1, t0 + Duration::from_millis(2)), 1);
        // A deeply stalled backlog is capped.
        assert_eq!(
            est.retry_after_secs_at(50, t0 + Duration::from_secs(10_000)),
            MAX_RETRY_AFTER_SECS as u64
        );
    }

    #[test]
    fn drain_estimate_recovers_after_a_stall() {
        let t0 = Instant::now();
        let est = DrainEstimator::starting_at(t0);
        est.record_completion_at(t0 + Duration::from_secs(30));
        // The long first interval dominates...
        assert!(est.retry_after_secs_at(1, t0 + Duration::from_secs(30)) >= 3);
        // ...until a run of fast completions ages it out of the window.
        let mut t = t0 + Duration::from_secs(30);
        for _ in 0..DRAIN_WINDOW {
            t += Duration::from_millis(100);
            est.record_completion_at(t);
        }
        assert_eq!(est.retry_after_secs_at(1, t), 1);
    }
}
