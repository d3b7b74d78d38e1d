//! The job queue and the executors that drain it.
//!
//! Pool-backed work (`/v1/solve`, `/v1/advise`) is admitted into one
//! bounded [`JobQueue`] in front of **one executor per pool worker**.
//! Every executor is a thread running its jobs on a view of *all* the
//! lanes of the pool's one worker team, with its own span and flight
//! recorders. Nothing partitions the lanes: at every region fork a job
//! enlists whichever helpers are free and runs narrower, never waiting,
//! while another job holds them — so a lone solve has the whole pool,
//! and P solves at once each run at about one worker instead of
//! queueing. A request's `workers` stays a ceiling on its view's width;
//! what a region actually ran on is in its trace. An executor sends its
//! completions to the event loop, which writes each reply — or drops
//! it, if the requester hit its deadline or hung up.
//!
//! Solves are deterministic, so identical requests have identical
//! answers: a keyed submit parks on the identical solve already queued
//! or executing (one execution fans out to every waiter, each with its
//! own `trace_id`), or queues a job and reserves that key's in-flight
//! entry. Advise jobs and `"cache": "bypass"` solves are unkeyed. A
//! full queue answers with a `Retry-After` derived from the **observed
//! drain rate** ([`DrainEstimator`]) over the jobs queued and
//! executing.
//!
//! Executors are panic-proof: a job that panics is contained with
//! [`std::panic::catch_unwind`], every parked waiter gets `500`, the
//! in-flight entry is removed (so the next identical request executes
//! rather than parking forever), and the executor's recorders are reset.

use crate::api;
use crate::cache::ContentKey;
use crate::http::Response;
use crate::metrics::{Family, Hist, Metrics, Scalar};
use crate::server::Shared;
use crate::solvers;
use crate::trace::{TraceEntry, TracedRun};
use crate::{lock, unpoisoned};
use llp::obs::json::Json;
use llp::obs::timeline::DEFAULT_EVENT_CAPACITY;
use llp::{FlightRecorder, Workers};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Completion-time window the [`DrainEstimator`] averages over.
const DRAIN_WINDOW: usize = 8;

/// `Retry-After` ceiling in seconds; a stalled service never asks a
/// client to back off longer than this.
const MAX_RETRY_AFTER_SECS: f64 = 60.0;

/// Flight events one executor's rings hold, split evenly over its
/// lanes: two lanes of [`DEFAULT_EVENT_CAPACITY`]. With one executor
/// per worker, the rings of a `P`-worker server total `P` times this —
/// linear in `P`, not `P²`.
const EXECUTOR_FLIGHT_EVENTS: usize = 2 * DEFAULT_EVENT_CAPACITY;

/// One parked requester: the connection and the per-request token that
/// guards against stale completions (a deadline-expired request's token
/// no longer matches, so its late completion is dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Waiter {
    pub(crate) conn: u64,
    pub(crate) token: u64,
}

pub(crate) enum JobKind {
    Solve(api::SolveRequest),
    Advise(Box<api::AdviseQuery>),
}

/// Where a job's completion(s) go.
pub(crate) enum JobOrigin {
    /// Reply to exactly this waiter (advise jobs, bypass solves).
    Direct(Waiter),
    /// Reply to every waiter parked in the in-flight table under this
    /// key, and insert the rendered result into the solve cache.
    Keyed(ContentKey),
}

pub(crate) struct Job {
    pub(crate) kind: JobKind,
    pub(crate) origin: JobOrigin,
}

/// One finished job reply, routed back to the event loop.
pub(crate) struct Completion {
    pub(crate) waiter: Waiter,
    pub(crate) response: Response,
}

/// What [`JobQueue::submit`] did with a request.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Submitted {
    /// A new job is queued.
    Queued,
    /// Parked on the identical keyed job already queued or executing.
    Coalesced,
    /// Turned away, the queue being full: retry after this many seconds.
    Full(u64),
}

/// The bounded queue in front of the executors, its drain flag, the
/// drain-rate estimate, and the in-flight table that coalesces
/// identical solves.
///
/// Lock order: `inflight`, then `queue`. A keyed submit holds the
/// in-flight lock from its lookup until its job is queued, and
/// [`JobQueue::waiters`] removes an entry under that same lock, so a
/// join never races a fan-out. Every other path takes one lock at a
/// time.
pub(crate) struct JobQueue {
    capacity: usize,
    queue: Mutex<VecDeque<Job>>,
    /// Signalled on every push and on [`JobQueue::close`].
    ready: Condvar,
    draining: AtomicBool,
    /// Canonical key → the waiters parked on the one queued or
    /// executing job of that key; the entry lives exactly as long.
    inflight: Mutex<HashMap<String, Vec<Waiter>>>,
    drain_rate: Mutex<DrainEstimator>,
    metrics: Arc<Metrics>,
}

impl JobQueue {
    /// An open queue admitting `capacity` jobs beyond the executing ones.
    pub(crate) fn new(capacity: usize, metrics: Arc<Metrics>) -> Self {
        Self {
            capacity,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            draining: AtomicBool::new(false),
            inflight: Mutex::new(HashMap::new()),
            drain_rate: Mutex::new(DrainEstimator::starting_at(Instant::now())),
            metrics,
        }
    }

    /// Admit `waiter`'s job. With a `key`, join the identical job queued
    /// or executing if there is one, else queue a job and reserve the
    /// key's in-flight entry; without one, queue a job that replies to
    /// `waiter` alone. A full queue parks nobody.
    pub(crate) fn submit(
        &self,
        kind: JobKind,
        key: Option<ContentKey>,
        waiter: Waiter,
    ) -> Submitted {
        let mut inflight = key.as_ref().map(|_| lock(&self.inflight));
        if let (Some(table), Some(key)) = (&mut inflight, &key) {
            if let Some(waiters) = table.get_mut(key.canonical()) {
                waiters.push(waiter);
                self.metrics.inc(Scalar::CacheCoalescedTotal);
                return Submitted::Coalesced;
            }
        }
        let mut queue = lock(&self.queue);
        self.metrics.observe(Hist::QueueDepths, queue.len() as f64);
        if queue.len() >= self.capacity {
            drop((queue, inflight));
            return Submitted::Full(self.retry_after());
        }
        let origin = match (inflight.as_mut(), key) {
            (Some(table), Some(key)) => {
                table.insert(key.canonical().to_string(), vec![waiter]);
                self.metrics.inc(Scalar::CacheMissesTotal);
                JobOrigin::Keyed(key)
            }
            _ => JobOrigin::Direct(waiter),
        };
        queue.push_back(Job { kind, origin });
        self.metrics.set(Scalar::QueueDepth, queue.len() as u64);
        drop((queue, inflight));
        self.ready.notify_one();
        Submitted::Queued
    }

    /// The next job, waiting while the queue is empty; `None` once the
    /// queue is closed and empty.
    pub(crate) fn next(&self) -> Option<Job> {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(job) = queue.pop_front() {
                self.metrics.set(Scalar::QueueDepth, queue.len() as u64);
                return Some(job);
            }
            if self.draining() {
                return None;
            }
            queue = unpoisoned(self.ready.wait(queue));
        }
    }

    /// Everyone waiting on a job from `origin`. A keyed job's in-flight
    /// entry is removed here: from then on an identical request starts
    /// a fresh execution, or hits the cache if the result landed there.
    pub(crate) fn waiters(&self, origin: &JobOrigin) -> Vec<Waiter> {
        match origin {
            JobOrigin::Direct(waiter) => vec![*waiter],
            JobOrigin::Keyed(key) => lock(&self.inflight)
                .remove(key.canonical())
                .unwrap_or_default(),
        }
    }

    /// Start the drain: the event loop stops admitting work, and
    /// [`JobQueue::next`] answers `None` once the queue is empty.
    pub(crate) fn close(&self) {
        // Set under the queue lock: an executor that has just read
        // `draining == false` still holds it until it is waiting, so it
        // cannot miss the wake-up and sleep through the drain.
        let queue = lock(&self.queue);
        self.draining.store(true, Ordering::SeqCst);
        drop(queue);
        self.ready.notify_all();
    }

    /// Whether [`JobQueue::close`] has been called.
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// `Retry-After` seconds for a client turned away now: every job
    /// queued or executing is ahead of it, whatever connections those
    /// jobs arrived on.
    pub(crate) fn retry_after(&self) -> u64 {
        let queued = lock(&self.queue).len();
        let executing = self.metrics.get(Scalar::ExecutorBusy) as usize;
        lock(&self.drain_rate).retry_after_secs(queued + executing, Instant::now())
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
struct DrainEstimator {
    /// Last completion, or construction time before any completion.
    last_event: Instant,
    /// Seconds between consecutive completions, newest last.
    intervals: VecDeque<f64>,
}

impl DrainEstimator {
    /// A fresh estimator; `start` seeds the stall clock.
    fn starting_at(start: Instant) -> Self {
        Self {
            last_event: start,
            intervals: VecDeque::with_capacity(DRAIN_WINDOW),
        }
    }

    /// Record that a job finished at `now`.
    fn record_completion(&mut self, now: Instant) {
        let interval = now.duration_since(self.last_event).as_secs_f64();
        if self.intervals.len() == DRAIN_WINDOW {
            self.intervals.pop_front();
        }
        self.intervals.push_back(interval);
        self.last_event = now;
    }

    /// Seconds a client with `jobs_ahead` jobs in front of it at `now`
    /// should wait before retrying.
    fn retry_after_secs(&self, jobs_ahead: usize, now: Instant) -> u64 {
        let stall = now.duration_since(self.last_event).as_secs_f64();
        let average = if self.intervals.is_empty() {
            0.0
        } else {
            self.intervals.iter().sum::<f64>() / self.intervals.len() as f64
        };
        let per_job = average.max(stall);
        let estimate = per_job * jobs_ahead.max(1) as f64;
        estimate.ceil().clamp(1.0, MAX_RETRY_AFTER_SECS) as u64
    }
}

// ------------------------------------------------------------ executors

/// An executor's flight recorder: one lane per worker of a `workers`-wide
/// team, [`EXECUTOR_FLIGHT_EVENTS`] slots between them.
pub(crate) fn executor_flight(workers: usize) -> FlightRecorder {
    FlightRecorder::enabled(workers, (EXECUTOR_FLIGHT_EVENTS / workers).max(1))
}

/// One executor: run admitted jobs on `team`, a view of every lane of
/// the pool, until the queue is closed and empty.
pub(crate) fn executor_loop(shared: &Arc<Shared>, team: &Workers) {
    while let Some(job) = shared.jobs.next() {
        shared.metrics.inc(Scalar::ExecutorBusy);
        if let Some(gate) = &shared.config.job_gate {
            // Test hook: block here while a test holds the gate.
            drop(lock(gate));
        }
        let completions = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(shared, team, &job)
        })) {
            Ok(completions) => completions,
            Err(_) => {
                // A panicking job (solver bug — inputs were validated at
                // admission) must not take the executor down with it. The
                // recorder may hold a half-logged span tree and partial
                // lane events; reset it so the next job's report and
                // timeline are exactly its own.
                // Every parked waiter gets the 500 and the in-flight
                // entry is removed, so the next identical request
                // executes instead of parking on a dead entry.
                shared.metrics.inc(Scalar::ExecutorPanicsTotal);
                team.recorder().reset();
                let response = Response::error(500, "internal error: job panicked");
                reply_to_all(shared, &job.origin, &response)
            }
        };
        shared.metrics.dec(Scalar::ExecutorBusy);
        lock(&shared.jobs.drain_rate).record_completion(Instant::now());
        for completion in completions {
            // The event loop may already be gone at hard teardown.
            shared.completions.send(completion).ok();
        }
        shared.waker.wake();
    }
}

/// The same `response` for everyone waiting on a job from `origin`.
fn reply_to_all(shared: &Arc<Shared>, origin: &JobOrigin, response: &Response) -> Vec<Completion> {
    shared
        .jobs
        .waiters(origin)
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
/// documents are rendered when `GET /v1/trace/{id}` asks (the route
/// table's handler), never here on the executor.
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

pub(crate) fn execute_job(shared: &Arc<Shared>, team: &Workers, job: &Job) -> Vec<Completion> {
    if let Some(fault) = &shared.config.job_fault {
        assert!(
            !fault.load(Ordering::SeqCst),
            "injected job fault (test hook)"
        );
    }
    match &job.kind {
        JobKind::Solve(api::SolveRequest { case, auto, .. }) => {
            let spec = case.spec();
            let view = team.sized_view(spec.workers());
            // "auto": overlay the solver's tune database's per-kernel
            // configurations. The schedules only reorder work within
            // each doacross region, so results stay bit-exact with the
            // default path — the overlay changes cost, never answers.
            let db = auto.then(|| shared.tune_db(spec.kind())).flatten();
            let map = db.as_ref().map(|d| d.schedule_map());
            let tuned = auto.then(|| api::tuned_resolution(db.as_deref()));
            let tuned = tuned.unwrap_or(Json::Null);
            match case.run(&view, map.as_ref()) {
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
                    let schedule = auto.then_some("auto");
                    let schedule = schedule.unwrap_or_else(|| spec.schedule().name());
                    shared.metrics.bump(Family::SolvesBySchedule, schedule);
                    if let Some(zones) = run.output().zone_dispatch() {
                        shared
                            .metrics
                            .zone_job(zones.shards, zones.zone_tasks, zones.peak_ready);
                    }
                    // One render of what every copy of the body shares;
                    // each copy adds its own trace_id/tuned/cache tail.
                    let body = api::SolveBody::new(&**run);
                    let cache = match &job.origin {
                        JobOrigin::Direct(_) => "bypass",
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
                            "miss"
                        }
                    };
                    shared
                        .jobs
                        .waiters(&job.origin)
                        .into_iter()
                        .map(|waiter| {
                            let trace_id = retain_trace(shared, &traced);
                            let body = body.finish(trace_id, tuned.clone(), cache);
                            Completion {
                                waiter,
                                response: Response::ok(body).with_trace_id(trace_id),
                            }
                        })
                        .collect()
                }
                // Validation happened at admission; anything left is an
                // internal fault.
                Err(msg) => reply_to_all(shared, &job.origin, &Response::error(500, &msg)),
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
            let zone_level = query.zones.map_or(Json::Null, |zones| {
                api::zone_level_advice(zones, &query.reports, &query.advisor)
            });
            let response = Response::ok(api::advise_response(&advice, zone_level).to_string());
            reply_to_all(shared, &job.origin, &response)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn queue(capacity: usize) -> JobQueue {
        JobQueue::new(capacity, Arc::new(Metrics::new()))
    }

    /// A one-zone solve of `steps` steps and its cache key.
    fn solve(steps: u64) -> (JobKind, ContentKey) {
        let body = format!(r#"{{"zones": 1, "steps": {steps}}}"#);
        let req = api::parse_solve_body(&body, 1).unwrap();
        let key = ContentKey::for_case(&req.case, false, 0);
        (JobKind::Solve(req), key)
    }

    fn waiter(token: u64) -> Waiter {
        Waiter { conn: 0, token }
    }

    #[test]
    fn a_second_keyed_submit_coalesces_onto_the_first() {
        let q = queue(4);
        let (kind, key) = solve(1);
        assert_eq!(
            q.submit(kind, Some(key.clone()), waiter(1)),
            Submitted::Queued
        );
        let (kind, _) = solve(1);
        assert_eq!(q.submit(kind, Some(key), waiter(2)), Submitted::Coalesced);
        assert_eq!(q.metrics.get(Scalar::CacheMissesTotal), 1);
        assert_eq!(q.metrics.get(Scalar::CacheCoalescedTotal), 1);
        let job = q.next().expect("one job");
        assert_eq!(q.waiters(&job.origin), [waiter(1), waiter(2)]);
        assert!(lock(&q.inflight).is_empty());
        q.close();
        assert!(q.next().is_none(), "the join queued nothing");
    }

    #[test]
    fn a_full_queue_answers_retry_after_without_parking_the_waiter() {
        let q = queue(1);
        let (kind, _) = solve(1);
        assert_eq!(q.submit(kind, None, waiter(1)), Submitted::Queued);
        let (kind, key) = solve(2);
        match q.submit(kind, Some(key.clone()), waiter(2)) {
            Submitted::Full(secs) => assert!((1..=60).contains(&secs)),
            other => panic!("a full queue answered {other:?}"),
        }
        assert!(lock(&q.inflight).is_empty(), "the rejected waiter parked");
        assert_eq!(q.metrics.get(Scalar::QueueDepth), 1);
        // Room again: the same key executes; nothing was left to join.
        let first = q.next().expect("the queued job");
        assert_eq!(q.waiters(&first.origin), [waiter(1)]);
        let (kind, _) = solve(2);
        assert_eq!(q.submit(kind, Some(key), waiter(3)), Submitted::Queued);
    }

    #[test]
    fn next_returns_none_only_after_close_with_an_empty_queue() {
        let q = Arc::new(queue(2));
        let taker = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.next().map(|job| q.waiters(&job.origin)))
        };
        // A late start only makes this pass vacuously, never fail.
        thread::sleep(Duration::from_millis(50));
        assert!(
            !taker.is_finished(),
            "`next` returned on an open, empty queue"
        );
        let (kind, _) = solve(1);
        assert_eq!(q.submit(kind, None, waiter(1)), Submitted::Queued);
        assert_eq!(taker.join().unwrap(), Some(vec![waiter(1)]));
        let (kind, _) = solve(1);
        assert_eq!(q.submit(kind, None, waiter(2)), Submitted::Queued);
        q.close();
        assert!(q.draining());
        assert!(
            q.next().is_some(),
            "a closed queue still hands out its jobs"
        );
        assert!(q.next().is_none());
    }

    /// Keyed submits over a few keys race an executor's `next` +
    /// `waiters`: every waiter comes back exactly once — from `waiters`,
    /// or at once as `Full` — and no in-flight entry outlives its job.
    #[test]
    fn every_submitted_waiter_comes_back_exactly_once() {
        const SUBMITS: u64 = 2_000;
        let q = Arc::new(queue(3));
        let executor = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut back = Vec::new();
                while let Some(job) = q.next() {
                    back.extend(q.waiters(&job.origin));
                }
                back
            })
        };
        let mut back = Vec::new();
        for token in 0..SUBMITS {
            let (kind, key) = solve(1 + token % 4);
            let key = (token % 7 != 0).then_some(key);
            if let Submitted::Full(_) = q.submit(kind, key, waiter(token)) {
                back.push(waiter(token));
            }
        }
        q.close();
        back.extend(executor.join().unwrap());
        let mut tokens: Vec<u64> = back.iter().map(|w| w.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..SUBMITS).collect::<Vec<_>>());
        assert!(lock(&q.inflight).is_empty());
    }

    /// One executor per worker, each with two lanes' worth of event
    /// slots however wide its team: a server's rings grow linearly in
    /// `P`. Overfilling every lane with zone tasks, one interval each,
    /// leaves exactly one interval per slot.
    #[test]
    fn flight_rings_stay_linear_in_the_worker_count() {
        let per_executor = 2 * 4096;
        for p in [1, 2, 4, 64] {
            let flight = executor_flight(p);
            for lane in 0..p {
                for step in 0..=per_executor as u64 {
                    flight.zone(lane, 0, step, || ());
                }
            }
            let timeline = flight.take_timeline();
            assert_eq!(timeline.lanes.len(), p);
            assert_eq!(p * timeline.total_events(), p * per_executor, "P = {p}");
            let mut events = timeline.lanes.iter().flat_map(|l| &l.events);
            assert!(events.all(|e| e.kind() == llp::obs::EventKind::Zone));
        }
    }

    #[test]
    fn drain_estimate_is_monotone_under_a_stall() {
        let t0 = Instant::now();
        let mut est = DrainEstimator::starting_at(t0);
        // A healthy phase: four jobs completing one second apart.
        for i in 1..=4 {
            est.record_completion(t0 + Duration::from_secs(i));
        }
        let healthy = est.retry_after_secs(2, t0 + Duration::from_secs(4));
        assert_eq!(healthy, 2, "two jobs ahead at ~1 s/job");
        // Then the executor stalls: no completions, queries drift out.
        let stalled: Vec<u64> = [6u64, 9, 14, 30]
            .iter()
            .map(|&s| est.retry_after_secs(2, t0 + Duration::from_secs(s)))
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
        let mut est = DrainEstimator::starting_at(t0);
        // Nothing observed yet: minimum one second.
        assert_eq!(est.retry_after_secs(0, t0), 1);
        assert_eq!(est.retry_after_secs(100, t0), 1);
        // A very fast drain still answers at least 1.
        est.record_completion(t0 + Duration::from_millis(1));
        est.record_completion(t0 + Duration::from_millis(2));
        assert_eq!(est.retry_after_secs(1, t0 + Duration::from_millis(2)), 1);
        // A deeply stalled backlog is capped.
        assert_eq!(
            est.retry_after_secs(50, t0 + Duration::from_secs(10_000)),
            MAX_RETRY_AFTER_SECS as u64
        );
    }

    #[test]
    fn drain_estimate_recovers_after_a_stall() {
        let t0 = Instant::now();
        let mut est = DrainEstimator::starting_at(t0);
        est.record_completion(t0 + Duration::from_secs(30));
        // The long first interval dominates...
        assert!(est.retry_after_secs(1, t0 + Duration::from_secs(30)) >= 3);
        // ...until a run of fast completions ages it out of the window.
        let mut t = t0 + Duration::from_secs(30);
        for _ in 0..DRAIN_WINDOW {
            t += Duration::from_millis(100);
            est.record_completion(t);
        }
        assert_eq!(est.retry_after_secs(1, t), 1);
    }
}
