//! Parent-loop hoisting with cache-resident pencil scratch
//! (paper Example 3).
//!
//! The original vector code batched a whole 2-D plane into scratch
//! arrays so that SUBB's recurrence could run over a long vectorizable
//! buffer. The paper's tuned version hoists the parallel loop into the
//! parent subroutine and shrinks the scratch to a 1-D *pencil* "that
//! easily fits in a large cache": RISC processors do not need long
//! vectors, and the hoisting cuts synchronization events by 1–3 orders
//! of magnitude.
//!
//! [`with_pencil_scratch`] is that idiom: a doacross over the parent
//! loop where each worker materializes its scratch **once per chunk**
//! and reuses it across its iterations — so the scratch stays hot in
//! that worker's cache for the whole region.

use crate::pool::Workers;
use crate::schedule::chunk_bounds;

/// Run `body(i, &mut scratch)` for each `i` in `0..n` as one parallel
/// region; each worker chunk creates its scratch with `make_scratch`
/// exactly once and reuses it for all its iterations.
///
/// One synchronization event total; at most `workers.processors()`
/// scratch allocations.
pub fn with_pencil_scratch<S: Send>(
    workers: &Workers,
    n: usize,
    make_scratch: impl Fn() -> S + Sync,
    body: impl Fn(usize, &mut S) + Sync,
) {
    if n == 0 {
        return;
    }
    let chunks = chunk_bounds(n, workers.processors());
    workers.region(|scope| {
        let body = &body;
        let make_scratch = &make_scratch;
        for chunk in chunks {
            scope.spawn(move || {
                let mut scratch = make_scratch();
                for i in chunk {
                    body(i, &mut scratch);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scratch_created_once_per_chunk() {
        let w = Workers::new(4);
        let creations = AtomicUsize::new(0);
        let visits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        with_pencil_scratch(
            &w,
            100,
            || {
                creations.fetch_add(1, Ordering::Relaxed);
                vec![0.0f64; 64]
            },
            |i, scratch| {
                scratch[0] = i as f64;
                visits[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(creations.load(Ordering::Relaxed), 4);
        assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
        assert_eq!(w.sync_event_count(), 1);
    }

    #[test]
    fn fewer_iterations_than_workers() {
        let w = Workers::new(8);
        let creations = AtomicUsize::new(0);
        with_pencil_scratch(
            &w,
            3,
            || creations.fetch_add(1, Ordering::Relaxed),
            |_, _| {},
        );
        assert_eq!(creations.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn scratch_persists_within_chunk() {
        // With one worker the single chunk sees a running accumulation.
        let w = Workers::serial();
        let out: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
        with_pencil_scratch(
            &w,
            10,
            || 0usize,
            |i, acc| {
                *acc += i;
                out[i].store(*acc, Ordering::Relaxed);
            },
        );
        // triangular numbers prove reuse of the same scratch value
        assert_eq!(out[9].load(Ordering::Relaxed), 45);
    }

    #[test]
    fn empty_loop_noop() {
        let w = Workers::new(2);
        with_pencil_scratch(&w, 0, || panic!("no scratch"), |_: usize, _: &mut ()| {});
        assert_eq!(w.sync_event_count(), 0);
    }
}
