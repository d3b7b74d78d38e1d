//! Bounded in-memory trace store behind `GET /v1/trace/{id}`.
//!
//! Every `/v1/solve` job that runs on a flight-instrumented executor
//! leaves one [`TraceEntry`] per waiter here. An entry retains the
//! *run* — a shared handle on the finished run (its drained flight
//! timeline) and the overhead attribution derived from it once
//! ([`TracedRun`]) — not its renderings: the attribution document
//! (compute vs. barrier vs. claim, per worker and per region, checked
//! against `perfmodel`'s Table 1 bound) and the Chrome trace-event
//! document are rendered by `api::trace_attribution` /
//! `api::trace_chrome` when somebody asks for them.
//!
//! Why on request: most solves are never asked for their trace, and a
//! Chrome document is 30–700 KB of JSON tree for an 18–23 KB reply —
//! built on the executor it cost more than the solve it described
//! (4.5 ms after a 1.2 ms FDTD solve) and sixteen retained trees were
//! ≈ 60 MiB of resident memory. What an entry pins instead is the run
//! itself: its drained flight timeline (bounded by the executor's
//! flight rings, `jobs::EXECUTOR_FLIGHT_EVENTS` events), its span
//! report (which grows with the case's `steps`) and the attribution
//! derived from them; and the executor does nothing for a reader who
//! may never come. The documents are a pure function of the retained
//! run, so fetching twice gives the same bytes.
//!
//! The store is a fixed-capacity ring: inserting beyond capacity
//! evicts the oldest entry. Traces are a debugging aid, not a durable
//! record; a client that wants one fetches it promptly after the solve
//! response hands it the `trace_id`.

use crate::lock;
use llp::obs::attr::{kernel_overheads, KernelOverhead};
use llp::obs::AttributionReport;
use solver::FinishedRun;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Traces retained before the oldest is evicted.
pub const DEFAULT_TRACE_CAPACITY: usize = 16;

/// A finished run with where its time went, derived once per
/// execution: what the `/metrics` counters, every waiter's trace entry
/// and the trace documents all read.
pub struct TracedRun {
    /// The run, physics erased.
    pub run: Box<dyn FinishedRun + Send + Sync>,
    /// Per-worker / per-region overhead split of the run's timeline.
    pub attr: AttributionReport,
    /// Per-kernel overheads: `attr`'s regions summed by kernel.
    pub kernels: Vec<KernelOverhead>,
}

impl TracedRun {
    /// Derive `run`'s attribution.
    #[must_use]
    pub fn new(run: Box<dyn FinishedRun + Send + Sync>) -> Self {
        let attr = AttributionReport::from_timeline(run.timeline());
        let kernels = kernel_overheads(&attr);
        Self { run, attr, kernels }
    }
}

/// One retained solve trace.
pub struct TraceEntry {
    /// The id the solve response advertised as `trace_id`.
    pub id: u64,
    /// The case label the run recorded under (e.g. `service/z2s3w2`).
    pub case: String,
    /// The execution this trace describes; the waiters of a coalesced
    /// fan-out each hold their own entry and id over one handle.
    pub run: Arc<TracedRun>,
}

/// Fixed-capacity, thread-safe ring of recent [`TraceEntry`]s.
pub struct TraceStore {
    next_id: AtomicU64,
    entries: Mutex<VecDeque<Arc<TraceEntry>>>,
    capacity: usize,
}

impl TraceStore {
    /// A store retaining at most `capacity` traces (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            next_id: AtomicU64::new(1),
            entries: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Reserve the next trace id (ids are unique per process and never
    /// reused, so a 404 means evicted-or-never-existed, not confusion).
    pub fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Insert a finished trace, evicting the oldest beyond capacity.
    pub fn insert(&self, entry: TraceEntry) {
        let mut entries = lock(&self.entries);
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(Arc::new(entry));
    }

    /// Look up a trace by id.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<Arc<TraceEntry>> {
        lock(&self.entries).iter().find(|e| e.id == id).cloned()
    }

    /// Number of traces currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Whether the store holds no traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solver::SolverSpec;

    /// One tiny recorded run, shared by every entry of a test the way
    /// a coalesced fan-out shares its execution.
    fn traced() -> Arc<TracedRun> {
        let mut pool = llp::Workers::recorded(1);
        pool.set_flight(llp::FlightRecorder::enabled(1, 64));
        let case = fdtd::FdtdCase::calibration(1, 1, 1);
        let run = fdtd::service::run(&case, &pool).unwrap();
        Arc::new(TracedRun::new(Box::new(run)))
    }

    fn entry_over(store: &TraceStore, tag: &str, run: &Arc<TracedRun>) -> u64 {
        let id = store.allocate_id();
        store.insert(TraceEntry {
            id,
            case: tag.to_string(),
            run: Arc::clone(run),
        });
        id
    }

    fn entry(store: &TraceStore, tag: &str) -> u64 {
        entry_over(store, tag, &traced())
    }

    #[test]
    fn lookup_round_trips() {
        let store = TraceStore::new(4);
        assert!(store.is_empty());
        let run = traced();
        let id = entry_over(&store, "a", &run);
        let got = store.get(id).unwrap();
        assert_eq!(got.id, id);
        assert_eq!(got.case, "a");
        // The entry retains the run itself with its attribution
        // derived: FDTD's two sweeps each ran one region.
        assert!(Arc::ptr_eq(&got.run, &run));
        assert_eq!(got.run.attr.regions.len(), 2);
        let kernels: Vec<&str> = got.run.kernels.iter().map(|k| k.kernel.as_str()).collect();
        assert_eq!(kernels, ["update_e", "update_h"]);
        assert!(store.get(id + 1).is_none());
    }

    #[test]
    fn waiters_of_one_execution_share_one_run() {
        let store = TraceStore::new(4);
        let run = traced();
        let a = entry_over(&store, "w", &run);
        let b = entry_over(&store, "w", &run);
        assert_ne!(a, b);
        assert!(Arc::ptr_eq(
            &store.get(a).unwrap().run,
            &store.get(b).unwrap().run
        ));
        // Two entries, the test's own handle — and nothing copied.
        assert_eq!(Arc::strong_count(&run), 3);
    }

    #[test]
    fn ring_evicts_oldest() {
        let store = TraceStore::new(2);
        let a = entry(&store, "a");
        let b = entry(&store, "b");
        let c = entry(&store, "c");
        assert_eq!(store.len(), 2);
        assert!(store.get(a).is_none(), "oldest must be evicted");
        assert!(store.get(b).is_some());
        assert!(store.get(c).is_some());
    }

    #[test]
    fn ids_are_unique_across_eviction() {
        let store = TraceStore::new(1);
        let first = entry(&store, "x");
        let second = entry(&store, "y");
        assert_ne!(first, second);
        assert!(store.get(first).is_none());
    }

    #[test]
    fn concurrent_inserts_stay_bounded() {
        let store = TraceStore::new(8);
        let run = traced();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        entry_over(&store, "t", &run);
                    }
                });
            }
        });
        assert_eq!(store.len(), 8);
        // Evicted entries let go of the run.
        assert_eq!(Arc::strong_count(&run), 9);
    }
}
