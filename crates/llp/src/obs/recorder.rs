//! The span recorder: hierarchical wall-clock tracing with a strict
//! zero-cost disabled path.
//!
//! A [`Recorder`] is either *disabled* — the default, holding no
//! allocation at all — or *enabled*, holding a shared span-stack. Every
//! entry point checks the one `Option` first, so instrumented hot loops
//! (the `RiscStepper` kernels) pay a single branch and **no
//! allocation, no lock, no clock read** when observation is off; the
//! integration test `obs_overhead.rs` asserts this with a counting
//! allocator.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::obs::report::{ObsReport, SpanKind, SpanNode, REPORT_SCHEMA_VERSION};

/// A handle for recording a tree of execution spans.
///
/// Clones share the same underlying span store, so one recorder can be
/// threaded through a solver and its worker pool. The coordinator
/// thread opens and closes spans; parallel workers never touch the
/// recorder (chunk timings are gathered by the doacross entry points
/// and attached after the region's barrier), so the interior mutex is
/// uncontended by construction.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<State>>>,
}

#[derive(Debug, Default)]
struct State {
    /// Completed top-level spans, in completion order.
    roots: Vec<SpanNode>,
    /// Open spans, innermost last, with their start instants.
    open: Vec<(SpanNode, Instant)>,
}

impl State {
    /// Attach a finished node under the innermost open span, or as a
    /// new root if none is open.
    fn attach(&mut self, node: SpanNode) {
        match self.open.last_mut() {
            Some((parent, _)) => parent.children.push(node),
            None => self.roots.push(node),
        }
    }

    /// The most recently attached node at the current depth.
    fn last_attached(&mut self) -> Option<&mut SpanNode> {
        match self.open.last_mut() {
            Some((parent, _)) => parent.children.last_mut(),
            None => self.roots.last_mut(),
        }
    }
}

/// Lock the span store, tolerating poison: the recorder is driven from
/// a request path that must survive a panicking job, and span data is
/// always internally consistent (each mutation is a single push/pop).
fn lock(store: &Arc<Mutex<State>>) -> MutexGuard<'_, State> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Recorder {
    /// The disabled recorder: records nothing, allocates nothing.
    #[must_use]
    pub const fn disabled() -> Self {
        Self { inner: None }
    }

    /// A fresh enabled recorder with an empty span store.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(State::default()))),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span; it closes (and its wall time is captured) when the
    /// returned guard drops. Spans nest by open/close order, so the
    /// guard must be bound to a variable (`let _span = …`), not
    /// discarded with `_`.
    #[must_use]
    pub fn span(&self, name: &str, kind: SpanKind) -> SpanGuard<'_> {
        match &self.inner {
            None => SpanGuard { store: None },
            Some(store) => {
                let node = SpanNode::new(name, kind);
                lock(store).open.push((node, Instant::now()));
                SpanGuard { store: Some(store) }
            }
        }
    }

    /// Record a completed parallel region of `seconds` wall time run by
    /// `workers` workers, attached at the current span depth with one
    /// sync event. Called by [`crate::pool::Workers::region`]; public
    /// so custom runtimes (and the overhead tests) can drive the same
    /// path.
    pub fn attach_region(&self, workers: usize, seconds: f64) {
        let Some(store) = &self.inner else { return };
        let mut node = SpanNode::new("region", SpanKind::Region);
        node.workers = workers;
        node.seconds = seconds;
        node.sync_events = 1;
        lock(store).attach(node);
    }

    /// Annotate the most recently attached region span with its loop
    /// extent and per-chunk wall times. Called by the doacross entry
    /// points right after their region completes.
    pub fn annotate_last_region(&self, iterations: u64, chunk_seconds: &[f64]) {
        let Some(store) = &self.inner else { return };
        let mut state = lock(store);
        let Some(node) = state.last_attached() else {
            return;
        };
        if node.kind != SpanKind::Region {
            return;
        }
        node.iterations = iterations;
        node.chunk_count = chunk_seconds.len();
        node.chunk_max_seconds = chunk_seconds.iter().copied().fold(0.0, f64::max);
        #[allow(clippy::cast_precision_loss)]
        if !chunk_seconds.is_empty() {
            node.chunk_mean_seconds =
                chunk_seconds.iter().sum::<f64>() / chunk_seconds.len() as f64;
        }
    }

    /// Drain the recorded spans into a report stamped with the current
    /// schema version. The recorder stays enabled and empty afterwards;
    /// a disabled recorder yields an empty report.
    ///
    /// Calling this while a [`SpanGuard`] is still open is a
    /// drop-ordering bug in the caller: the open spans' subtrees cannot
    /// be part of this report, and before this was handled the
    /// straggler guard's later drop silently attached a dangling child
    /// to the *next* report. Debug builds panic (via `debug_assert!`)
    /// to flush the bug out; release builds warn on stderr, drop the
    /// still-open spans, and return the completed roots — the straggler
    /// guard's eventual drop becomes a tolerated no-op, exactly as
    /// after [`Recorder::reset`].
    ///
    /// # Panics
    /// In debug builds, panics if called while a span guard is open.
    #[must_use]
    pub fn take_report(&self, case: &str, workers: usize) -> ObsReport {
        let spans = match &self.inner {
            None => Vec::new(),
            Some(store) => {
                // Clear the open stack *before* the debug assertion:
                // the straggler guard's drop then pops an empty stack
                // (a tolerated no-op), so a debug panic here cannot
                // cascade into an abort during unwind, and in release
                // the dangling child never materializes.
                let (open, roots) = {
                    let mut state = lock(store);
                    let open = state.open.len();
                    state.open.clear();
                    (open, std::mem::take(&mut state.roots))
                };
                if open > 0 {
                    debug_assert!(false, "take_report called with {open} span(s) still open");
                    eprintln!(
                        "llp::obs: take_report called with {open} span(s) still open; \
                         dropping them (close every SpanGuard before draining)"
                    );
                }
                roots
            }
        };
        ObsReport {
            schema_version: REPORT_SCHEMA_VERSION,
            source: "measured".to_string(),
            case: case.to_string(),
            workers,
            requested_workers: None,
            spans,
        }
    }

    /// Discard everything recorded so far — completed roots *and* any
    /// spans still open. This is the recovery path after a panicking
    /// job is caught: the aborted request's partial span tree must not
    /// leak into the next request's report, and a leftover open span
    /// must not turn the next [`Recorder::take_report`] into a panic.
    pub fn reset(&self) {
        let Some(store) = &self.inner else { return };
        let mut state = lock(store);
        state.roots.clear();
        state.open.clear();
    }
}

/// RAII guard returned by [`Recorder::span`]; closing happens on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    store: Option<&'a Arc<Mutex<State>>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(store) = self.store else { return };
        // Never panic in a destructor: tolerate a poisoned lock (some
        // other panic is already unwinding) and an already-drained stack.
        let mut state = store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((mut node, start)) = state.open.pop() {
            node.seconds = start.elapsed().as_secs_f64();
            state.attach(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_yields_empty_report() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let _s = rec.span("rhs", SpanKind::Kernel);
            rec.attach_region(4, 0.1);
        }
        let report = rec.take_report("case", 4);
        assert!(report.spans.is_empty());
        assert_eq!(report.sync_events(), 0);
    }

    #[test]
    fn spans_nest_by_guard_scope() {
        let rec = Recorder::enabled();
        {
            let _step = rec.span("step", SpanKind::Step);
            {
                let _zone = rec.span("zone1", SpanKind::Zone);
                let _kernel = rec.span("rhs", SpanKind::Kernel);
                rec.attach_region(2, 0.01);
            }
            {
                let _zone = rec.span("zone2", SpanKind::Zone);
            }
        }
        let report = rec.take_report("nest", 2);
        assert_eq!(report.spans.len(), 1);
        let step = &report.spans[0];
        assert_eq!(step.name, "step");
        assert_eq!(step.children.len(), 2);
        // Guards drop in reverse declaration order: _kernel before _zone.
        let zone1 = &step.children[0];
        assert_eq!(zone1.name, "zone1");
        assert_eq!(zone1.children[0].name, "rhs");
        assert_eq!(zone1.children[0].children[0].kind, SpanKind::Region);
        assert_eq!(report.sync_events(), 1);
    }

    #[test]
    fn annotate_fills_chunk_stats() {
        let rec = Recorder::enabled();
        rec.attach_region(3, 0.3);
        rec.annotate_last_region(90, &[0.1, 0.1, 0.2]);
        let report = rec.take_report("chunks", 3);
        let region = &report.spans[0];
        assert_eq!(region.iterations, 90);
        assert_eq!(region.chunk_count, 3);
        assert!((region.chunk_max_seconds - 0.2).abs() < 1e-12);
        assert!((region.chunk_mean_seconds - 0.4 / 3.0).abs() < 1e-12);
        assert!((region.imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn take_report_drains() {
        let rec = Recorder::enabled();
        rec.attach_region(1, 0.0);
        assert_eq!(rec.take_report("a", 1).spans.len(), 1);
        assert!(rec.take_report("a", 1).spans.is_empty());
        assert!(rec.is_enabled());
    }

    #[test]
    fn clones_share_the_store() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.attach_region(2, 0.0);
        assert_eq!(rec.take_report("shared", 2).spans.len(), 1);
    }

    /// Debug builds flush the drop-ordering bug out with a panic…
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "still open")]
    fn report_with_open_span_panics_in_debug() {
        let rec = Recorder::enabled();
        let _open = rec.span("step", SpanKind::Step);
        let _ = rec.take_report("bad", 1);
    }

    /// …release builds tolerate it: the open span is dropped from the
    /// report, and the straggler guard's later drop must NOT attach a
    /// dangling child to the next report (the original footgun).
    #[cfg(not(debug_assertions))]
    #[test]
    fn report_with_open_span_is_tolerated_in_release() {
        let rec = Recorder::enabled();
        rec.attach_region(2, 0.1);
        let straggler = rec.span("step", SpanKind::Step);
        let report = rec.take_report("tolerated", 2);
        // The completed region made it; the open span did not.
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].kind, SpanKind::Region);
        // The straggler's drop is a no-op: no dangling child leaks
        // into the next report.
        drop(straggler);
        assert!(rec.take_report("next", 2).spans.is_empty());
        // And the recorder still works afterwards.
        rec.attach_region(2, 0.2);
        assert_eq!(rec.take_report("after", 2).spans.len(), 1);
    }

    /// The debug panic must not poison the recorder: the straggler
    /// guard's drop during unwind is a no-op, and a caller that caught
    /// the panic can keep using the recorder.
    #[cfg(debug_assertions)]
    #[test]
    fn open_span_panic_leaves_recorder_usable() {
        let rec = Recorder::enabled();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _open = rec.span("step", SpanKind::Step);
            let _ = rec.take_report("bad", 1);
        }));
        assert!(result.is_err());
        rec.attach_region(1, 0.0);
        assert_eq!(rec.take_report("recovered", 1).spans.len(), 1);
    }

    #[test]
    fn reset_discards_partial_state() {
        let rec = Recorder::enabled();
        rec.attach_region(2, 0.1);
        let open = rec.span("step", SpanKind::Step);
        rec.reset();
        // The leftover open span no longer exists; its guard's drop is
        // a tolerated no-op and the next report starts clean.
        drop(open);
        let report = rec.take_report("after-reset", 2);
        assert!(report.spans.is_empty());
        rec.attach_region(2, 0.2);
        assert_eq!(rec.take_report("next", 2).spans.len(), 1);
    }
}
