//! The persistent worker team beneath [`crate::pool::Workers`], and the
//! only module of this crate that contains `unsafe`.
//!
//! A root `Workers` of `P` processors owns one [`Team`] — `P − 1`
//! helper slots, shared through an `Arc` by every view of the pool —
//! and the thread that calls `region` is always the region's first
//! worker. The paper's `C$doacross` runtime keeps its team alive across
//! parallel regions so that leaving a region costs one barrier (Table
//! 1's S), not a thread create and join; this module is that runtime.
//!
//! # Protocol
//!
//! **The helper word.** Each helper waits on one word of its own, the
//! generation word of a classic fork/join runtime widened to a pointer:
//! it holds [`UNSPAWNED`], [`IDLE`], [`PARKED`], [`BUSY`], [`EXIT`] or
//! the address of a published [`Job`], and every transition is one
//! compare-exchange on it, so a helper serves at most one job at a time
//! whoever asks.
//!
//! **Spin, then park.** An idle helper polls its word for [`SPIN`] of
//! wall clock and then parks ([`std::thread::park`]) until the word
//! changes. Waking a parked thread costs the caller more than a small
//! region does (see [`SPIN`]), so the window is sized to cover the
//! serial gaps between the regions of a run of time steps; measuring it in
//! wall clock rather than iterations means a helper that lost its CPU
//! during the window parks as soon as it runs again.
//!
//! **Publishing a region.** [`Team::run`] builds one [`Job`] on the
//! caller's stack — the region's one body and its task count, an
//! atomic next-task index, a barrier word — and offers it to the view's
//! helpers (a view of `w` workers is the caller plus helpers
//! `0..w − 1`), at most one per task beyond the caller's own:
//! `IDLE → job`, `PARKED → job` plus an unpark, or `UNSPAWNED → job`
//! plus the one thread spawn of that helper's life. A helper whose word
//! holds anything else is serving another view (or a region this one
//! is nested in) and is *skipped, never waited for*.
//!
//! **Draining.** The caller and every helper that took the job
//! (`job → BUSY`) claim task indices from the shared counter until none
//! are left and call the body on each, so more tasks than workers,
//! nested regions and overlapping views all finish: the caller alone is
//! enough. Each call runs under `catch_unwind`; the first panic payload
//! is kept. The body is told the lane it runs on: the caller is lane 0
//! and helper `h` is lane `h + 1`.
//!
//! **The barrier.** When the caller runs out of tasks it takes the job
//! back from every helper that has not picked it up (`job → IDLE`),
//! which is what keeps an oversubscribed team at serial speed instead
//! of a context switch per helper. A helper that did take the job sets
//! its own word back to `IDLE` (so the next region finds it) and then
//! *departs*: one release increment of the barrier word, its last
//! access to the job. The caller acquires the barrier word until as
//! many helpers have departed as took the job — spinning for [`SPIN`],
//! then parking, having set a flag in the same word that tells a
//! departing helper to clone the caller's handle *before* it departs
//! and to unpark it after. Only then does `run` return, re-raising the
//! kept panic if there is one.
//!
//! That release/acquire pair is the happens-before edge `thread::scope`
//! used to give: the `&mut` slabs a helper filled, and the flight
//! recorder's relaxed single-writer rings, are read by the caller only
//! after it. It is also the whole safety argument, cited by every
//! `unsafe` block below as **the region invariant**: *`run` does not
//! return until every call of the body has finished and every helper
//! has let go of the job.*
//!
//! **Shutdown.** Views hold the team through an `Arc`; helper threads
//! hold only the slot array. Dropping the last handle therefore drops
//! the [`Team`], which writes `EXIT` to every word, unparks whoever is
//! parked and joins every thread it spawned.

use std::any::Any;
use std::hint;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long an idle helper (and a caller at the barrier) polls before
/// it parks. Inside a solve the gap between regions is small — FDTD's
/// is one source-point update plus a 128-add fold, ≈ 0.3 µs, now that
/// the energy partials are computed in the `update_e` region — so the
/// window is there for the gaps *around* steps: a caller's own
/// bookkeeping, the next request of a served stream. The spin-window
/// probe (EXPERIMENTS.md; two 6 µs tasks per region, 2-vCPU host) has
/// the helper take its task in 94–99.7 % of regions for gaps up to
/// 40 µs at 8 µs a region; past the window it is parked, the futex wake
/// costs the caller ≈ 9 µs and lands after the caller has run both
/// tasks itself (23–24 µs a region), i.e. a wake costs more than the
/// region it was meant to help.
const SPIN: Duration = Duration::from_micros(50);

/// A region's body, `body(task, lane)`.
type Body<'env> = dyn Fn(usize, usize) + Sync + 'env;

/// Helper-word states; any other value is the address of a [`Job`]
/// (which is word-aligned, so never one of these).
const UNSPAWNED: *mut Job = ptr::null_mut();
/// Spawned, polling its word, free to take a job.
const IDLE: *mut Job = ptr::without_provenance_mut(1);
/// Free to take a job, but asleep: whoever publishes one must unpark.
const PARKED: *mut Job = ptr::without_provenance_mut(2);
/// Draining a job it took.
const BUSY: *mut Job = ptr::without_provenance_mut(3);
/// Told to return from its thread.
const EXIT: *mut Job = ptr::without_provenance_mut(4);

/// One helper's slot, on cache lines of its own: the helper polls the
/// word, and only a caller publishing to *this* helper writes it.
#[repr(align(128))]
struct Helper {
    word: AtomicPtr<Job>,
    /// The helper's own handle, set by the helper before it first
    /// waits, for whoever finds it [`PARKED`].
    thread: OnceLock<Thread>,
}

/// One published region. Lives on the stack of [`Team::run`].
struct Job {
    /// The region's body with its `'env` lifetime erased.
    body: *const Body<'static>,
    /// How many tasks: the body runs once for each of `0..tasks`.
    tasks: usize,
    /// Next unclaimed task index; each index is handed out once.
    next: AtomicUsize,
    /// `DEPARTED` per helper that has let go, plus [`SLEEPING`].
    barrier: AtomicUsize,
    /// The thread to unpark when [`SLEEPING`] is set.
    caller: Thread,
    /// The first panic payload of the region.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Barrier-word flag: the caller is parked, or about to.
const SLEEPING: usize = 1;
/// Barrier-word increment of one departing helper.
const DEPARTED: usize = 2;

impl Job {
    /// Claim task indices and run the body on them as `lane` until none
    /// are left.
    fn drain(&self, lane: usize) {
        // SAFETY: `Team::run` keeps the body alive until it returns, and
        // by the region invariant it has not returned while this job is
        // being drained; the erased `'env` borrows are alive for the
        // same reason.
        let body = unsafe { &*self.body };
        loop {
            // Relaxed: the index publishes nothing; the body was
            // published with the job (release on the helper word).
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                return;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(i, lane))) {
                self.panic
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
            }
        }
    }

    /// A helper's last access to the job.
    fn depart(&self) {
        // Acquire pairs with the caller's `fetch_or(SLEEPING)`.
        let mut seen = self.barrier.load(Ordering::Acquire);
        loop {
            // A sleeping caller's handle must be in hand *before* the
            // departure is visible: after it, the job may be gone.
            let sleeper = (seen & SLEEPING != 0).then(|| self.caller.clone());
            // Release pairs with the caller's acquire loads in `wait`:
            // everything this helper's tasks wrote happens-before the
            // caller's return.
            match self.barrier.compare_exchange_weak(
                seen,
                seen + DEPARTED,
                Ordering::Release,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    if let Some(caller) = sleeper {
                        caller.unpark();
                    }
                    return;
                }
                Err(now) => seen = now,
            }
        }
    }

    /// The caller's side of the barrier: wait until `taken` helpers
    /// have departed.
    fn wait(&self, taken: usize) {
        let departed = |word: usize| (word / DEPARTED == taken).then_some(());
        if spin_for(|| departed(self.barrier.load(Ordering::Acquire))).is_some() {
            return;
        }
        self.barrier.fetch_or(SLEEPING, Ordering::AcqRel);
        while departed(self.barrier.load(Ordering::Acquire)).is_none() {
            thread::park();
        }
    }
}

/// Poll `ready` for at most [`SPIN`] of wall clock.
fn spin_for<T>(mut ready: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = Instant::now() + SPIN;
    loop {
        // The clock costs about as much as 64 polls of a cached word.
        for _ in 0..64 {
            if let Some(value) = ready() {
                return Some(value);
            }
            hint::spin_loop();
        }
        if Instant::now() >= deadline {
            return None;
        }
    }
}

impl Helper {
    /// The helper's wait loop: the next job it took, or `None` at exit.
    fn next_job(&self) -> Option<*const Job> {
        loop {
            // Acquire pairs with the publisher's release: the job's
            // fields are visible once its address is.
            let changed = spin_for(|| {
                let word = self.word.load(Ordering::Acquire);
                (word != IDLE).then_some(word)
            });
            let Some(word) = changed else {
                // Release: the `thread` handle set at start is visible
                // to whoever acquires `PARKED`.
                let parked =
                    self.word
                        .compare_exchange(IDLE, PARKED, Ordering::Release, Ordering::Relaxed);
                if parked.is_ok() {
                    while self.word.load(Ordering::Acquire) == PARKED {
                        thread::park();
                    }
                }
                continue;
            };
            if word == EXIT {
                return None;
            }
            // Take it, unless the caller finished alone and took it
            // back first.
            let took = self
                .word
                .compare_exchange(word, BUSY, Ordering::Acquire, Ordering::Relaxed);
            if took.is_ok() {
                return Some(word);
            }
        }
    }

    /// Helper `index`'s whole life.
    fn serve(&self, index: usize) {
        let _ = self.thread.set(thread::current());
        while let Some(job) = self.next_job() {
            // SAFETY: the address was published by `Team::run`, which
            // by the region invariant does not return — and so keeps
            // the `Job` on its stack alive — until this helper, which
            // took the job (`job → BUSY`), has departed below.
            let job = unsafe { &*job };
            job.drain(index + 1);
            // Free for the next region before this one's caller can
            // return and start it. Release/acquire with the next
            // publisher orders this job's task effects before its.
            self.word.store(IDLE, Ordering::Release);
            job.depart();
        }
    }
}

/// The helper threads of one root pool.
pub(crate) struct Team {
    helpers: Arc<[Helper]>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Team {
    /// A team for `processors` workers: the caller of each region plus
    /// `processors − 1` helpers, none of them spawned yet.
    pub(crate) fn new(processors: usize) -> Self {
        let helpers = (1..processors)
            .map(|_| Helper {
                word: AtomicPtr::new(UNSPAWNED),
                thread: OnceLock::new(),
            })
            .collect();
        Self {
            helpers,
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Run `body(task, lane)` once for every task in `0..tasks` on the
    /// team's first `width` lanes: the calling thread is lane 0, helper
    /// `l − 1` is lane `l`. See the module header.
    ///
    /// # Panics
    /// Re-raises the first panic of the body, after every task has
    /// finished.
    pub(crate) fn run(&self, width: usize, tasks: usize, body: &Body<'_>) {
        let wanted = width.min(tasks).saturating_sub(1);
        if wanted == 0 {
            // A serial region (one task, or a one-lane view) is a plain
            // loop on the calling thread.
            for i in 0..tasks {
                body(i, 0);
            }
            return;
        }
        let job = Job {
            // SAFETY: the lifetime erasure — helper threads are
            // `'static`, the body borrows `'env`; only the trait
            // object's lifetime bound changes. Sound by the region
            // invariant.
            body: unsafe {
                std::mem::transmute::<*const Body<'_>, *const Body<'static>>(ptr::from_ref(body))
            },
            tasks,
            next: AtomicUsize::new(0),
            barrier: AtomicUsize::new(0),
            caller: thread::current(),
            panic: Mutex::new(None),
        };
        let address = ptr::from_ref(&job).cast_mut();
        // Sliced before anything is published: from the first `enlist`
        // to the end of `wait` nothing may unwind, or the job would die
        // under its helpers. Nothing does — task panics are caught in
        // `drain`, and a refused spawn is an `Err`, not a panic.
        let mine = &self.helpers[..wanted];
        let enlisted = (0..wanted)
            .filter(|&index| self.enlist(index, address))
            .count();
        job.drain(0);
        // Every task is claimed; take the job back from helpers that
        // never picked it up. Only a word this call set can still hold
        // `address`, so each success is one enlisted helper that never
        // saw the job. Relaxed: taking it back publishes nothing.
        let retracted = mine
            .iter()
            .filter(|helper| {
                helper
                    .word
                    .compare_exchange(address, IDLE, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            })
            .count();
        job.wait(enlisted - retracted);
        // The region invariant holds from here: no task is running and
        // no helper will touch `job` or `body` again.
        let payload = job
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// Offer the job at `address` to helper `index`; whether it was
    /// free to be offered it.
    fn enlist(&self, index: usize, address: *mut Job) -> bool {
        let helper = &self.helpers[index];
        let mut seen = helper.word.load(Ordering::Relaxed);
        while seen == IDLE || seen == PARKED || seen == UNSPAWNED {
            // Release publishes the job; acquire pairs with the
            // helper's `IDLE → PARKED` so its `thread` handle is set.
            match helper.word.compare_exchange_weak(
                seen,
                address,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Err(now) => seen = now,
                Ok(_) if seen == IDLE => return true,
                Ok(_) if seen == PARKED => {
                    if let Some(thread) = helper.thread.get() {
                        thread.unpark();
                    }
                    return true;
                }
                Ok(_) => return self.spawn(index),
            }
        }
        false
    }

    /// The one spawn of helper `index`'s life, by whoever first offered
    /// it a job. If the OS refuses the thread the slot goes back to
    /// [`UNSPAWNED`] and the region runs one worker narrower.
    fn spawn(&self, index: usize) -> bool {
        let helpers = Arc::clone(&self.helpers);
        let spawned = thread::Builder::new()
            .name(format!("llp-helper-{}", index + 1))
            .spawn(move || helpers[index].serve(index));
        match spawned {
            Ok(handle) => {
                self.threads
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(handle);
                true
            }
            Err(_) => {
                self.helpers[index].word.store(UNSPAWNED, Ordering::Relaxed);
                false
            }
        }
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        // No view is left, so no region is running: every word is
        // `UNSPAWNED`, `IDLE` or `PARKED`.
        for helper in self.helpers.iter() {
            if helper.word.swap(EXIT, Ordering::AcqRel) == PARKED {
                if let Some(thread) = helper.thread.get() {
                    thread.unpark();
                }
            }
        }
        let threads = self
            .threads
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for handle in threads.drain(..) {
            // A helper's thread runs the body under `catch_unwind` only.
            let _ = handle.join();
        }
    }
}
