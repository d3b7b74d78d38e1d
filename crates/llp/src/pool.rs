//! The worker pool: a persistent worker team plus the
//! synchronization-event accounting the paper's cost model budgets for.
//!
//! A root [`Workers`] owns one long-lived team of helper threads (the
//! crate-private `team` module, `src/team.rs`, states the protocol:
//! helpers are spawned on first use, spin briefly and then park between
//! regions, and are joined when the last handle drops); every view of
//! `w` workers runs its regions on the team's first `w` lanes, taking
//! whichever of those helpers are free.
//!
//! A parallel region is a task count and one body,
//! [`Workers::region`]`(tasks, |task, lane| …)`: the team hands the
//! task indices out one at a time, the calling thread works alongside
//! the helpers, and the region ends on a barrier. That barrier *is* the
//! synchronization event the paper's model charges for: each exit from
//! a parallel region increments the counter by one, mirroring "the main
//! cost of parallelization is … the synchronization cost associated
//! with exiting a parallel section of code".

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::obs::timeline::DEFAULT_EVENT_CAPACITY;
use crate::obs::FlightRecorder;
use crate::schedule::{share_end, Policy, ScheduleMap};
use crate::team::Team;

/// A shared-memory worker team of `P` "processors".
///
/// The processor count is an explicit experimental parameter (it bounds
/// how many chunks the schedulers cut), and the team counts
/// **synchronization events** — one per parallel-region exit. When
/// built with [`Workers::recorded`] (or given a recorder via
/// [`Workers::set_flight`]), every doacross region is additionally
/// recorded on the team's [`FlightRecorder`]; by default the recorder
/// is disabled and costs one branch per region.
pub struct Workers {
    /// The helper threads every view of this pool shares.
    team: Arc<Team>,
    /// This view's width: its regions run on the team's first
    /// `processors` lanes, the thread calling `region` being lane 0.
    /// Views of one pool overlap; a helper another view (or an outer
    /// region) is using is skipped, so regions share the team region
    /// by region.
    processors: usize,
    /// What the caller asked for before any [`Workers::sized_view`]
    /// clamp; equals `processors` for a directly-constructed team.
    requested: usize,
    counters: Arc<Counters>,
    /// Per-view synchronization events: fresh for every
    /// [`Workers::sized_view`] / [`Workers::with_policy`] view, so a
    /// view can attribute events to exactly its own regions even while
    /// other views of the same pool run concurrently (the shared
    /// `counters` keep the pool total).
    local: Arc<AtomicU64>,
    /// The one recorder: spans, region marks and per-lane events
    /// (disabled by default; enabled on every new pool by
    /// `LLP_FLIGHT=1`).
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
            .field("recording", &self.flight.is_enabled())
            .finish()
    }
}

impl Workers {
    /// Create a team of `processors` workers (observation disabled
    /// unless `LLP_FLIGHT=1`).
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    #[must_use]
    pub fn new(processors: usize) -> Self {
        Self::with_recording(processors, flight_force_enabled())
    }

    /// A team of `processors` workers whose recorder is on, with
    /// [`DEFAULT_EVENT_CAPACITY`] events per lane.
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    #[must_use]
    pub fn recorded(processors: usize) -> Self {
        Self::with_recording(processors, true)
    }

    fn with_recording(processors: usize, record: bool) -> Self {
        assert!(processors > 0, "worker count must be positive");
        let flight = if record {
            FlightRecorder::enabled(processors, DEFAULT_EVENT_CAPACITY)
        } else {
            FlightRecorder::disabled()
        };
        Self {
            team: Arc::new(Team::new(processors)),
            processors,
            requested: processors,
            counters: Arc::new(Counters::default()),
            local: Arc::new(AtomicU64::new(0)),
            flight,
            policy: Policy::Static,
        }
    }

    /// A single-worker team (serial execution through the same API).
    #[must_use]
    pub fn serial() -> Self {
        Self::new(1)
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
    /// `pool.sized_view(w)` costs a few `Arc` clones, and
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
        Self {
            local: Arc::new(AtomicU64::new(0)),
            ..self.kernel_view(processors, self.policy)
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

    /// A same-sized view of this pool running under `policy`: shares
    /// counters and recorder, like [`Workers::sized_view`], but changes
    /// only the scheduling policy. This is how a service applies a
    /// per-request policy without mutating the shared pool.
    #[must_use]
    pub fn with_policy(&self, policy: Policy) -> Self {
        Self {
            requested: self.requested,
            local: Arc::new(AtomicU64::new(0)),
            ..self.kernel_view(self.processors, policy)
        }
    }

    /// A per-kernel view of this view: `processors` workers (clamped to
    /// this view's width) running under `policy`, sharing **both** the
    /// pool-wide counters *and this view's local counter*.
    ///
    /// This is the autotuner's substitution point: a request-scoped
    /// view hands each kernel call site a `kernel_view` carrying that
    /// kernel's tuned configuration, and because the local counter is
    /// shared (unlike [`Workers::sized_view`], which starts a fresh one)
    /// the request's `local_sync_event_count` delta still bills every
    /// region the kernels ran.
    ///
    /// # Panics
    /// Panics if `processors == 0`.
    #[must_use]
    pub fn kernel_view(&self, processors: usize, policy: Policy) -> Self {
        assert!(processors > 0, "worker count must be positive");
        Self {
            team: Arc::clone(&self.team),
            processors: processors.min(self.processors),
            requested: processors,
            counters: Arc::clone(&self.counters),
            local: Arc::clone(&self.local),
            flight: self.flight.clone(),
            policy,
        }
    }

    /// The [`Workers::kernel_view`] the kernel named `kernel` runs on:
    /// its `schedules` entry's worker count and policy when it has one,
    /// this view's own otherwise. Every kernel goes through a
    /// `kernel_view` either way, so the sync accounting (shared local
    /// counter) is the same whether or not an override applies — the
    /// one dispatch seam every solver's step uses.
    #[must_use]
    pub fn scheduled_view(&self, schedules: Option<&ScheduleMap>, kernel: &str) -> Self {
        let (processors, policy) = schedules
            .and_then(|m| m.get(kernel))
            .unwrap_or((self.processors, self.policy));
        self.kernel_view(processors, policy)
    }

    /// The team's recorder: the one [`Workers::flight`] returns, named
    /// for the span side of it (`recorder().span(..)`,
    /// `recorder().take_report(..)`).
    #[must_use]
    pub fn recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The team's recorder (disabled unless enabled explicitly or by
    /// `LLP_FLIGHT=1`). Views share their pool's recorder, so one drain
    /// covers every region the pool ran.
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Replace the team's recorder — how the serve layer gives each
    /// executor its own, and how a view switches recording off. Lanes
    /// should cover this team's [`Workers::processors`]; narrower
    /// recorders silently drop events from the uncovered lanes.
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
        self.local.load(Ordering::Relaxed)
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
        self.local.store(0, Ordering::Relaxed);
    }

    /// Run one parallel region: `body(task, lane)` once for every task
    /// in `0..tasks`; when every call has returned, one synchronization
    /// event is counted. The region itself records nothing: the
    /// doacross entry points built on it log their region marks and
    /// lane events on the recorder.
    ///
    /// The calling thread and the free helpers of this view's lanes
    /// claim task indices one at a time, in order, until none are left.
    /// `lane` is the team lane a call runs on: 0 on the calling thread,
    /// `l` on the team's helper `l − 1`, always below
    /// [`Workers::processors`]; two tasks one thread runs get the same
    /// lane, so what they record per lane is what that thread did. A
    /// region may have more tasks than the view has lanes, and a
    /// one-task region or a one-lane view involves no other thread at
    /// all — so tasks must not wait on one another.
    ///
    /// This is the primitive beneath [`mod@crate::doacross`]; prefer the
    /// higher-level entry points.
    ///
    /// # Panics
    /// Re-raises the first panic of `body`, after every other task has
    /// run (on a one-lane view, at once).
    pub fn region(&self, tasks: usize, body: impl Fn(usize, usize) + Sync) {
        self.counters.regions.fetch_add(1, Ordering::Relaxed);
        self.team.run(self.processors, tasks, &body);
        self.counters.sync_events.fetch_add(1, Ordering::Relaxed);
        self.local.fetch_add(1, Ordering::Relaxed);
    }
}

/// Whether `LLP_FLIGHT=1` puts a recorder on every new team.
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
/// stderr warning rather than panicking — a service must not die on a
/// typo'd environment, nor silently ignore one.
#[must_use]
pub fn default_worker_count() -> usize {
    positive_usize("LLP_WORKERS").unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Read `name` as a positive (non-zero) `usize`: `None` when it is
/// unset, and also when it is set to something unusable — `0`, a
/// negative number, a value that overflows `usize`, or non-numeric
/// garbage — after a one-line warning on stderr naming the variable,
/// the value and the fallback. Surrounding whitespace is tolerated.
fn positive_usize(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    let why = match trimmed.parse::<usize>() {
        Ok(n) if n > 0 => return Some(n),
        Ok(_) => "must be a positive integer",
        Err(e) if matches!(e.kind(), std::num::IntErrorKind::PosOverflow) => {
            "overflows the machine word"
        }
        Err(_) => "is not a positive integer",
    };
    eprintln!("warning: ignoring {name}={trimmed:?}: {why}; using the default instead");
    None
}

/// The atomic chunk-claim counters behind the dynamic (self-scheduling)
/// and guided policies: a pre-computed chunk list is cut into one
/// contiguous **block** of chunk indices per claimant, each block
/// indexed by a counter of its own, and claimant `t` loops
/// `while let Some(i) = claimer.claim_as(t)` until every block is
/// exhausted.
///
/// The blocks are a static partition used as the *starting point* of a
/// dynamic one: block `t` holds the chunks whose first iteration falls
/// in claimant `t`'s [`chunk_bounds`](crate::chunk_bounds) share of
/// `0..n` — the rows the static schedule would have given it — so
/// back-to-back regions over the same extent keep a chunk on the core
/// whose cache holds it, and only a claimant that has drained its own
/// block steals, round-robin, from the others. [`ChunkClaimer::new`] is the one-block case: every
/// claimant shares one counter and indices come out in order.
///
/// Each successful claim is one scheduling interaction — the extra cost
/// the paper's static-scheduling model avoids and
/// [`Policy::scheduling_events`] accounts for.
#[derive(Debug)]
pub struct ChunkClaimer {
    /// Never empty; the blocks tile `0..limit` in order.
    blocks: Box<[Block]>,
}

/// One claimant's block of chunk indices, on cache lines of its own:
/// an uncontended claimant touches no counter another core writes.
#[derive(Debug)]
#[repr(align(128))]
struct Block {
    /// Next unclaimed chunk index of this block (runs past `end` once
    /// the block is empty).
    next: AtomicUsize,
    end: usize,
}

impl ChunkClaimer {
    /// A one-block claimer over chunk indices `0..limit`.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        Self {
            blocks: Box::new([Block {
                next: AtomicUsize::new(0),
                end: limit,
            }]),
        }
    }

    /// A claimer over `chunks` (contiguous, in iteration order, as
    /// [`Policy::chunks`] returns them) with one block per claimant,
    /// balanced by **iterations**: block `t` is the run of chunks that
    /// start inside the `t`-th of `claimants` static shares of the
    /// iteration space, however many chunks that is.
    ///
    /// # Panics
    /// Panics if `claimants == 0`.
    #[must_use]
    pub fn blocked(chunks: &[Range<usize>], claimants: usize) -> Self {
        assert!(claimants > 0, "claimant count must be positive");
        let n = chunks.last().map_or(0, |c| c.end);
        let mut first = 0;
        let blocks = (0..claimants)
            .map(|t| {
                // With more claimants than iterations the surplus
                // claimants have no share: their blocks are empty.
                let share_end = share_end(n, claimants, t);
                let end = first + chunks[first..].partition_point(|c| c.start < share_end);
                let next = AtomicUsize::new(first);
                first = end;
                Block { next, end }
            })
            .collect();
        Self { blocks }
    }

    /// [`ChunkClaimer::claim_as`] for claimant 0: with one block (or
    /// one claimant) chunk indices are handed out exactly once, in
    /// order.
    pub fn claim(&self) -> Option<usize> {
        self.claim_as(0)
    }

    /// Claim a chunk index for `claimant`, or `None` once every block
    /// is exhausted: the next index of the claimant's own block, else
    /// of the first non-empty block after it. Every index is handed out
    /// exactly once whoever asks.
    pub fn claim_as(&self, claimant: usize) -> Option<usize> {
        let own = claimant % self.blocks.len();
        let (before, from_own) = self.blocks.split_at(own);
        from_own.iter().chain(before).find_map(|block| {
            // Relaxed: the index publishes nothing — the payloads it
            // names were published with the region.
            let i = block.next.fetch_add(1, Ordering::Relaxed);
            (i < block.end).then_some(i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    impl ChunkClaimer {
        /// Number of chunks this claimer hands out in total.
        fn limit(&self) -> usize {
            self.blocks.last().map_or(0, |block| block.end)
        }
    }

    // Each `positive_usize` test owns a unique variable name: tests run
    // concurrently in one process, and the environment is
    // process-global.

    #[test]
    fn unset_is_none() {
        assert_eq!(positive_usize("LLP_ENV_TEST_UNSET"), None);
    }

    #[test]
    fn well_formed_value_parses() {
        std::env::set_var("LLP_ENV_TEST_OK", "8");
        assert_eq!(positive_usize("LLP_ENV_TEST_OK"), Some(8));
    }

    #[test]
    fn whitespace_is_tolerated() {
        std::env::set_var("LLP_ENV_TEST_WS", "  12  ");
        assert_eq!(positive_usize("LLP_ENV_TEST_WS"), Some(12));
    }

    #[test]
    fn zero_is_rejected() {
        std::env::set_var("LLP_ENV_TEST_ZERO", "0");
        assert_eq!(positive_usize("LLP_ENV_TEST_ZERO"), None);
    }

    #[test]
    fn overflow_is_rejected() {
        std::env::set_var("LLP_ENV_TEST_OVERFLOW", "99999999999999999999999999");
        assert_eq!(positive_usize("LLP_ENV_TEST_OVERFLOW"), None);
    }

    #[test]
    fn garbage_is_rejected() {
        std::env::set_var("LLP_ENV_TEST_GARBAGE", "eight");
        assert_eq!(positive_usize("LLP_ENV_TEST_GARBAGE"), None);
        std::env::set_var("LLP_ENV_TEST_NEGATIVE", "-4");
        assert_eq!(positive_usize("LLP_ENV_TEST_NEGATIVE"), None);
    }

    #[test]
    fn counts_sync_events() {
        let w = Workers::new(2);
        assert_eq!(w.sync_event_count(), 0);
        w.region(0, |_, _| {});
        w.region(0, |_, _| {});
        assert_eq!(w.sync_event_count(), 2);
        assert_eq!(w.region_count(), 2);
        w.reset_counters();
        assert_eq!(w.sync_event_count(), 0);
    }

    /// Run one `n`-task region on `w` and return how often each task
    /// ran, asserting that every call's lane is one of the view's.
    fn runs_per_task(w: &Workers, n: usize) -> Vec<usize> {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        w.region(n, |task, lane| {
            assert!(lane < w.processors(), "lane {lane} of {}", w.processors());
            hits[task].fetch_add(1, Ordering::Relaxed);
        });
        // Every call has returned before the region does.
        hits.into_iter().map(AtomicUsize::into_inner).collect()
    }

    #[test]
    fn region_runs_every_task_once_on_a_view_lane() {
        let pool = Workers::new(3);
        // More tasks than lanes, none, one lane of a wider pool.
        for (w, n) in [(&pool, 10), (&pool, 0), (&pool.sized_view(1), 7)] {
            assert_eq!(runs_per_task(w, n), vec![1; n], "{n} tasks");
        }
        // A region nested in every task of another.
        let inner = std::sync::Mutex::new(vec![Vec::new(); 4]);
        pool.region(4, |task, lane| {
            assert!(lane < 3);
            let runs = runs_per_task(&pool, 5);
            inner.lock().unwrap()[task] = runs;
        });
        assert_eq!(inner.into_inner().unwrap(), vec![vec![1; 5]; 4]);
        assert_eq!(pool.sync_event_count(), 3 + 1 + 4);
    }

    /// Run one `n`-task region whose tasks wait for one another, and
    /// report how many were alive at once: `n` only if `n` distinct
    /// threads took part. (Waiting tasks are exactly what a region must
    /// not contain — here the deadline makes a narrow team a failed
    /// assertion instead of a hang.)
    fn concurrent_tasks(w: &Workers, n: usize) -> usize {
        let arrived = AtomicUsize::new(0);
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        w.region(n, |_, _| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < n && Instant::now() < deadline {
                std::thread::yield_now();
            }
        });
        arrived.load(Ordering::SeqCst)
    }

    #[test]
    fn back_to_back_regions_keep_exact_counts() {
        let pool = Workers::new(2);
        let view = pool.sized_view(2);
        let ran = AtomicUsize::new(0);
        for _ in 0..100_000 {
            view.region(2, |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(ran.load(Ordering::Relaxed), 200_000);
        for w in [&pool, &view] {
            assert_eq!(w.sync_event_count(), 100_000);
            assert_eq!(w.region_count(), 100_000);
        }
        assert_eq!(view.local_sync_event_count(), 100_000);
    }

    #[test]
    fn overlapping_views_both_finish() {
        // Two threads drive views of the *same* lanes: whichever finds
        // the helper busy runs narrower, neither waits for the other.
        let pool = Workers::new(2);
        let ran = AtomicUsize::new(0);
        std::thread::scope(|threads| {
            for _ in 0..2 {
                threads.spawn(|| {
                    let view = pool.sized_view(2);
                    for _ in 0..5_000 {
                        view.region(2, |_, _| {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    assert_eq!(view.local_sync_event_count(), 5_000);
                });
            }
        });
        assert_eq!(ran.load(Ordering::Relaxed), 20_000);
        assert_eq!(pool.sync_event_count(), 10_000);
    }

    #[test]
    fn nested_region_finishes() {
        // Whichever worker runs an outer task is the caller of the
        // inner region; its own helper slot reads busy and is skipped.
        let w = Workers::new(3);
        let ran = AtomicUsize::new(0);
        w.region(3, |_, _| {
            w.region(3, |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 9);
        assert_eq!(w.sync_event_count(), 4);
    }

    #[test]
    fn panicking_task_is_reraised_after_the_barrier() {
        let w = Workers::new(3);
        let ran = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.region(6, |task, _| {
                assert!(task != 1, "task one fails");
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        // The original payload, not a generic "a thread panicked"...
        let payload = outcome.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task one fails"));
        // ...raised only after every other task had run...
        assert_eq!(ran.load(Ordering::Relaxed), 5);
        // ...and the team is as wide as before.
        assert_eq!(concurrent_tasks(&w, 3), 3);
    }

    #[test]
    fn panicking_chunk_leaves_the_team_usable() {
        let body = |i: usize| (i as f64).sqrt().sin();
        let serial: Vec<f64> = (0..90).map(body).collect();
        for policy in [Policy::Static, Policy::Dynamic { chunk: 10 }] {
            let w = Workers::new(3).with_policy(policy);
            let mut out = vec![0.0f64; 90];
            // Iteration 45 sits in the middle chunk under either policy.
            let faulted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crate::doacross::doacross_into(&w, &mut out, |i| {
                    assert!(i != 45, "iteration 45 fails");
                    body(i)
                });
            }));
            assert!(faulted.is_err(), "{policy:?}");
            // The identical region on the same team: exact, one more
            // sync event, and every worker still there.
            let before = w.sync_event_count();
            crate::doacross::doacross_into(&w, &mut out, body);
            assert_eq!(out, serial, "{policy:?}");
            assert_eq!(w.sync_event_count(), before + 1, "{policy:?}");
            assert_eq!(concurrent_tasks(&w, 3), 3, "{policy:?}");
        }
    }

    #[test]
    fn processors_reported() {
        assert_eq!(Workers::new(4).processors(), 4);
        assert_eq!(Workers::serial().processors(), 1);
    }

    #[test]
    fn recorded_team_emits_region_spans() {
        let w = Workers::recorded(2);
        crate::doacross(&w, 2, |_| {});
        // A bare region is counted, not recorded.
        w.region(1, |_, _| {});
        let report = w.recorder().take_report("pool-test", 2);
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].workers, 2);
        assert_eq!(report.sync_events(), 1);
    }

    #[test]
    fn default_team_records_nothing() {
        // `LLP_FLIGHT=1` puts a recorder on every new team.
        if std::env::var("LLP_FLIGHT").is_ok() {
            eprintln!("LLP_FLIGHT set: skipping the disabled-recorder assertion");
            return;
        }
        let w = Workers::new(2);
        crate::doacross(&w, 2, |_| {});
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
        crate::doacross(&pool, 4, |_| {});
        let view = pool.sized_view(2);
        assert_eq!(view.processors(), 2);
        crate::doacross(&view, 2, |_| {});
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
        let pool = Workers::new(4);
        assert_eq!(pool.policy(), Policy::Static);
        let pool = pool.with_policy(Policy::Dynamic { chunk: 2 });
        assert_eq!(pool.sized_view(2).policy(), Policy::Dynamic { chunk: 2 });
        let guided = pool.with_policy(Policy::Guided { min_chunk: 1 });
        assert_eq!(guided.policy(), Policy::Guided { min_chunk: 1 });
        assert_eq!(guided.processors(), 4);
        // Policy views share the pool's counters.
        guided.region(0, |_, _| {});
        assert_eq!(pool.sync_event_count(), 1);
    }

    #[test]
    fn views_track_local_sync_events_independently() {
        let pool = Workers::new(2);
        let a = pool.sized_view(1);
        let b = pool.with_policy(Policy::Dynamic { chunk: 1 });
        a.region(0, |_, _| {});
        a.region(0, |_, _| {});
        b.region(0, |_, _| {});
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
        request.region(0, |_, _| {});
        kernel.region(0, |_, _| {});
        // The kernel view bills the *request's* local counter — the
        // property that keeps a request's sync-event delta correct when
        // kernels run under per-kernel tuned views.
        assert_eq!(request.local_sync_event_count(), 2);
        assert_eq!(pool.sync_event_count(), 2);
        // Oversized kernel requests clamp like sized_view.
        let wide = request.kernel_view(16, Policy::Static);
        assert_eq!(wide.processors(), 2);
        assert_eq!(wide.requested_processors(), 16);
        // The schedule-map seam: mapped kernels get their entry,
        // unmapped ones the view's own width and policy.
        let mut map = ScheduleMap::new();
        map.set("rhs", 1, Policy::Guided { min_chunk: 2 });
        let config = |map, kernel| {
            let view = request.scheduled_view(map, kernel);
            view.region(0, |_, _| {});
            (view.processors(), view.policy())
        };
        assert_eq!(
            config(Some(&map), "rhs"),
            (1, Policy::Guided { min_chunk: 2 })
        );
        assert_eq!(config(Some(&map), "update"), (2, Policy::Static));
        assert_eq!(config(None, "rhs"), (2, Policy::Static));
        assert_eq!(request.local_sync_event_count(), 5);
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
        // Eight claimants hammering one block, and eight hammering
        // their own blocks and then each other's: every index exactly
        // once either way.
        let chunks = Policy::Dynamic { chunk: 3 }.chunks(3000, 8);
        for claimer in [
            ChunkClaimer::new(chunks.len()),
            ChunkClaimer::blocked(&chunks, 8),
        ] {
            let hits: Vec<AtomicUsize> = (0..chunks.len()).map(|_| AtomicUsize::new(0)).collect();
            let start = std::sync::Barrier::new(8);
            std::thread::scope(|scope| {
                for claimant in 0..8 {
                    let (claimer, hits, start) = (&claimer, &hits, &start);
                    scope.spawn(move || {
                        start.wait();
                        while let Some(i) = claimer.claim_as(claimant) {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            assert_eq!((0..8).find_map(|t| claimer.claim_as(t)), None);
        }
    }

    /// Drain `claimer` as `claimant` alone.
    fn drain_as(claimer: &ChunkClaimer, claimant: usize) -> Vec<usize> {
        std::iter::from_fn(|| claimer.claim_as(claimant)).collect()
    }

    #[test]
    fn blocked_claimer_prefers_its_own_share() {
        // 103 iterations in chunks of 7 over 4 claimants: the static
        // shares are 26/26/26/25 iterations, i.e. chunk starts
        // 0..=21 | 28..=49 | 56..=77 | 84..=98.
        let chunks = Policy::Dynamic { chunk: 7 }.chunks(103, 4);
        assert_eq!(chunks.len(), 15);
        let blocks = [0..4, 4..8, 8..12, 12..15];

        // A lone claimant sees every index, in order.
        let claimer = ChunkClaimer::blocked(&chunks, 4);
        assert_eq!(claimer.limit(), 15);
        assert_eq!(drain_as(&claimer, 0), (0..15).collect::<Vec<_>>());

        // An uncontended claimant drains its own block before it
        // touches another, then steals round-robin from the next.
        let claimer = ChunkClaimer::blocked(&chunks, 4);
        let seen = drain_as(&claimer, 2);
        let expected: Vec<usize> = [8..12, 12..15, 0..4, 4..8].into_iter().flatten().collect();
        assert_eq!(seen, expected);

        // A stalled claimant strands nothing: claimants 0, 1 and 3 take
        // their own blocks, claimant 2 never shows up, and whoever
        // finishes first takes all of block 2.
        let claimer = ChunkClaimer::blocked(&chunks, 4);
        for t in [0, 1, 3] {
            let own: Vec<usize> = (0..blocks[t].len())
                .map(|_| claimer.claim_as(t).expect("own block"))
                .collect();
            assert_eq!(own, blocks[t].clone().collect::<Vec<_>>(), "claimant {t}");
        }
        assert_eq!(drain_as(&claimer, 3), blocks[2].clone().collect::<Vec<_>>());
        assert_eq!(claimer.claim_as(0), None);
    }

    #[test]
    fn blocked_claimer_balances_iterations_not_chunk_counts() {
        // Guided chunks shrink: 64, 32, 16, 8, 4, 2, 2 for 128 over 2.
        // Half the *iterations* is the first chunk alone.
        let chunks = Policy::Guided { min_chunk: 2 }.chunks(128, 2);
        assert_eq!(chunks.len(), 7);
        let claimer = ChunkClaimer::blocked(&chunks, 2);
        let own_iterations = |t: usize, take: usize| -> usize {
            (0..take)
                .map(|_| chunks[claimer.claim_as(t).expect("own block")].len())
                .sum()
        };
        assert_eq!(own_iterations(0, 1), 64);
        assert_eq!(own_iterations(1, 6), 64);
        assert_eq!(claimer.claim_as(0), None);

        // More claimants than iterations: the surplus blocks are empty
        // and their claimants go straight to stealing.
        let chunks = Policy::Dynamic { chunk: 1 }.chunks(2, 4);
        let claimer = ChunkClaimer::blocked(&chunks, 4);
        assert_eq!(drain_as(&claimer, 3), vec![0, 1]);
        // No chunks at all.
        assert_eq!(ChunkClaimer::blocked(&[], 3).claim_as(1), None);
    }
}
