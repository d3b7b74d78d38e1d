//! The `llpd` server: one readiness event loop, one shared doacross
//! pool, and the job queue feeding its executors.
//!
//! A single **event-loop thread** owns the nonblocking listener and
//! every connection, multiplexed through a hand-declared `poll(2)`
//! binding (see [`crate::evloop`]). Each connection is a small state
//! machine: bytes accumulate in a read buffer, the incremental HTTP
//! parser re-examines the prefix on every readable event, and response
//! bytes drain through a bounded write buffer on writable events.
//! Connections are keep-alive and serial: one request is in flight per
//! connection and pipelined bytes wait buffered until the current
//! response is written — the write-backpressure bound.
//!
//! A framed request goes through the route table (`routes.rs`), which
//! answers it inline or hands back a job. The event loop admits a job:
//! an over-budget solve gets `413`, a cached one ([`SolveCache`]) is
//! answered at once, anything else goes to the job queue (`jobs.rs`),
//! and the requester parks until its completion arrives or its deadline
//! passes (`503`; the late completion is dropped).
//!
//! Shutdown is graceful: the queue closes first (new work gets `503`),
//! the executors finish everything already admitted, the event loop
//! delivers the final completions, closes idle keep-alive connections,
//! and exits once every connection has flushed.

use crate::cache::{ContentKey, SolveCache, DEFAULT_CACHE_CAPACITY};
use crate::evloop::{self, Conn, PollFd, ReadOutcome, WakeReceiver, Waker, POLLIN, POLLOUT};
use crate::http::{parse_request_bytes, render_response, Parse, Request, Response, MAX_HEAD_BYTES};
use crate::jobs::{self, Completion, JobKind, JobQueue, Submitted, Waiter};
use crate::lock;
use crate::metrics::{Hist, Metrics, PoolContext, Scalar, Snapshot};
use crate::routes::{self, RouteOutcome, UNROUTED};
use crate::solvers::MAX_WORKERS;
use crate::telemetry::{self, Windows};
use crate::trace::TraceStore;
use llp::obs::json::Json;
use llp::Workers;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use tune::TuneDb;

/// Hard cap on concurrently open connections; beyond it the listener
/// is simply not polled and the kernel backlog absorbs the burst.
const MAX_CONNECTIONS: usize = 1024;

/// Poll timeout: the granularity of deadline expiry and idle sweeps.
const POLL_TICK_MS: i32 = 25;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker count of the shared pool (the maximum any request can
    /// ask for, capped at [`MAX_WORKERS`]), and the number of executors:
    /// up to this many jobs run at once, all on the pool's one team.
    pub workers: usize,
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

/// The autotuner's server-side state: which solver, if any, is being
/// calibrated (one calibration at a time across every solver;
/// concurrent requests get 429), one database slot per solver kind —
/// seeded from [`ServerConfig::tune_db`], each replaced by its solver's
/// completed calibrations — and a generation counter the solve-cache
/// keys embed so a recalibration invalidates `auto` entries.
pub(crate) struct TuneState {
    pub(crate) calibrating: Mutex<Option<&'static str>>,
    pub(crate) db: Mutex<HashMap<String, Arc<TuneDb>>>,
    pub(crate) generation: AtomicU64,
}

/// What the event loop, the route handlers and the executors share.
pub(crate) struct Shared {
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) pool: Workers,
    pub(crate) jobs: JobQueue,
    pub(crate) traces: TraceStore,
    pub(crate) tune: TuneState,
    pub(crate) cache: SolveCache,
    pub(crate) completions: mpsc::Sender<Completion>,
    pub(crate) waker: Waker,
    /// Monotone per-process request ids for the access log.
    request_seq: AtomicU64,
    /// Snapshots of `metrics` at the telemetry window boundaries
    /// (`/v1/stats`); `None` when [`ServerConfig::telemetry_window_ms`]
    /// is 0.
    pub(crate) telemetry: Option<Windows>,
    /// Server start instant — the telemetry clock's origin.
    started: Instant,
    pub(crate) config: ServerConfig,
}

impl Shared {
    /// Snapshot a solver's current tune database (cheap Arc clone).
    pub(crate) fn tune_db(&self, kind: &str) -> Option<Arc<TuneDb>> {
        lock(&self.tune.db).get(kind).cloned()
    }

    /// Every metric now, the pool's own counters included.
    pub(crate) fn snapshot(&self) -> Snapshot {
        self.metrics.snapshot(&pool_context(&self.pool))
    }

    /// Milliseconds since start on the telemetry clock.
    fn clock_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// The `/metrics` values the pool owns; there is one executor per
/// worker.
fn pool_context(pool: &Workers) -> PoolContext {
    PoolContext {
        pool_workers: pool.processors(),
        executor_shards: pool.processors(),
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
    /// Bind, spawn the event loop and the executors, and return.
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
        let cache_capacity = config.cache_capacity;
        let (metrics, pool) = (Arc::new(Metrics::new()), Workers::new(workers));
        let telemetry = (config.telemetry_window_ms > 0).then(|| {
            let origin = metrics.snapshot(&pool_context(&pool));
            Windows::new(
                config.telemetry_window_ms,
                telemetry::DEFAULT_CAPACITY,
                origin,
            )
        });
        let shared = Arc::new(Shared {
            jobs: JobQueue::new(config.queue_capacity, Arc::clone(&metrics)),
            metrics,
            pool,
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
        let executors = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                // All of the team's lanes (see `jobs`), the pool's
                // counters, and a recorder of its own: concurrent jobs
                // never interleave spans or timelines, /metrics pool
                // totals stay exact, and an executor's jobs are serial,
                // so each job drains exactly its own recording.
                let mut team = shared.pool.sized_view(workers);
                team.set_flight(jobs::executor_flight(workers));
                thread::spawn(move || jobs::executor_loop(&shared, &team))
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
        self.shared.jobs.close();
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
        self.shared.jobs.draining()
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
                        self.shared.metrics.request(UNROUTED);
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
                    self.shared.metrics.request(UNROUTED);
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
        match routes::route(&request, &self.shared) {
            RouteOutcome::Inline(response) => {
                let log = Some((req_id, request.method.clone(), request.path.clone()));
                self.finish_request(id, response, request.keep_alive, started, log);
            }
            RouteOutcome::Submit(kind) => self.admit(id, &request, kind, started, req_id),
        }
    }

    /// Admission control for pool-backed work: memory budget and cache
    /// lookup here, then the job queue — and park the requester on its
    /// connection.
    fn admit(&mut self, id: u64, request: &Request, kind: JobKind, started: Instant, req_id: u64) {
        let log = Some((req_id, request.method.clone(), request.path.clone()));
        if self.draining() {
            let response = Response::error(503, "shutting down")
                .with_retry_after(self.shared.jobs.retry_after());
            self.finish_request(id, response, request.keep_alive, started, log);
            return;
        }
        // Memory-budget admission control: an over-budget solve is
        // refused with 413 before it can touch the cache, coalesce, or
        // occupy a queue slot — bypass solves included. The estimate is
        // the solver's own formula over the validated case, so the
        // check costs arithmetic, never pool work.
        if let (JobKind::Solve(req), Some(budget)) = (&kind, self.shared.config.memory_budget) {
            let estimated = req.case.spec().memory_usage_estimate();
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
                    ..Response::ok(body.to_string())
                };
                self.finish_request(id, response, request.keep_alive, started, log);
                return;
            }
        }
        let key = match &kind {
            JobKind::Solve(req) if !req.bypass => {
                let generation = self.shared.tune.generation.load(Ordering::SeqCst);
                let key = ContentKey::for_case(&req.case, req.auto, generation);
                if let Some(body) = self.shared.cache.get(&key) {
                    self.shared.metrics.inc(Scalar::CacheHitsTotal);
                    let response = Response::ok((*body).clone());
                    self.finish_request(id, response, request.keep_alive, started, log);
                    return;
                }
                Some(key)
            }
            JobKind::Solve(_) => {
                self.shared.metrics.inc(Scalar::CacheBypassTotal);
                None
            }
            JobKind::Advise(_) => None,
        };
        let waiter = Waiter {
            conn: id,
            token: self.alloc_token(),
        };
        match self.shared.jobs.submit(kind, key, waiter) {
            Submitted::Queued | Submitted::Coalesced => {
                self.park(id, waiter.token, request, started, req_id);
            }
            Submitted::Full(retry_after) => {
                let response = Response::error(429, "queue full").with_retry_after(retry_after);
                self.finish_request(id, response, request.keep_alive, started, log);
            }
        }
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
            let response = Response::error(503, "deadline exceeded")
                .with_retry_after(self.shared.jobs.retry_after());
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
                self.shared.metrics.request(UNROUTED);
                let response = Response::error(408, "timed out reading request");
                self.finish_request(id, response, false, Instant::now(), None);
            } else {
                self.close(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api;
    use crate::jobs::{Job, JobOrigin};
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
        match routes::route(&request, shared) {
            RouteOutcome::Inline(response) => response,
            RouteOutcome::Submit(..) => panic!("{path} is answered inline"),
        }
    }

    /// The store keeps the run; what `GET /v1/trace/{id}` serves must be
    /// the documents of *that* run and id — here rendered a second time,
    /// straight from the run's timeline.
    #[test]
    fn trace_documents_on_demand_are_the_direct_renderings() {
        let server = Server::start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .expect("bind");
        let shared = &server.shared;
        // An executor's view, built as `Server::start` builds them; the
        // server's own executors sit idle throughout.
        let mut team = shared.pool.sized_view(2);
        team.set_flight(jobs::executor_flight(2));

        for body in [
            r#"{"zones": 2, "steps": 2, "schedule": "dynamic", "chunk": 2}"#,
            r#"{"solver": "fdtd", "size": 32, "steps": 4, "schedule": "dynamic", "chunk": 1}"#,
        ] {
            let job = Job {
                kind: JobKind::Solve(api::parse_solve_body(body, 2).unwrap()),
                origin: JobOrigin::Direct(Waiter { conn: 0, token: 0 }),
            };
            let completions = jobs::execute_job(shared, &team, &job);
            let id = completions[0].response.trace_id.expect("a flight trace");
            let entry = shared.traces.get(id).expect("retained");
            assert_eq!(entry.case, entry.run.run.case().label());

            let run = &*entry.run.run;
            let attr = AttributionReport::from_timeline(run.timeline());
            let kernels = kernel_overheads(&attr);
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
    fn one_executor_per_worker() {
        for (asked, executors) in [(0, 1), (1, 1), (3, 3)] {
            let server = Server::start(ServerConfig {
                workers: asked,
                ..ServerConfig::default()
            })
            .expect("bind");
            assert_eq!(server.executors.len(), executors);
            let metrics = server.shared.snapshot().to_json();
            let reported = metrics.get("executor_shards").and_then(Json::as_u64);
            assert_eq!(reported, Some(executors as u64));
            server.shutdown();
        }
    }
}
