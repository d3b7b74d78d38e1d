//! Loop fusion (paper Example 2).
//!
//! ```fortran
//! C$doacross local (L,J,K)
//!       DO 20 L=1,LMAX
//!         DO 10 K=1,KMAX ...  ! body of the first loop
//!         DO 20 K=1,KMAX ...  ! body of the second loop
//! ```
//!
//! Merging loops under a common outer loop halves (or better) the
//! number of synchronization events. [`FusedRegion`] collects loop
//! bodies that share an iteration space and runs them in a single
//! doacross region; each body sees the iteration index and runs in
//! sequence within the iteration, preserving the per-iteration ordering
//! of the original loop sequence.

use crate::pool::Workers;

/// A set of loop bodies fused under one parallel outer loop.
///
/// Bodies added with [`FusedRegion::then`] execute in insertion order
/// for each iteration index — semantically equivalent to running the
/// loops one after another *provided* iteration `i` of a later loop
/// depends only on iteration `i` of earlier loops (the same legality
/// condition loop fusion has in a parallelizing compiler).
///
/// ```
/// use llp::{FusedRegion, Workers};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let workers = Workers::new(2);
/// let a: Vec<AtomicU64> = (0..10).map(|_| AtomicU64::new(0)).collect();
/// FusedRegion::over(10)
///     .then(|i| a[i].store(i as u64, Ordering::Relaxed))
///     .then(|i| {
///         a[i].fetch_add(1, Ordering::Relaxed);
///     })
///     .run(&workers);
/// assert_eq!(a[9].load(Ordering::Relaxed), 10);
/// // Two loop bodies, ONE synchronization event (paper Example 2).
/// assert_eq!(workers.sync_event_count(), 1);
/// ```
pub struct FusedRegion<'a> {
    n: usize,
    bodies: Vec<Box<dyn Fn(usize) + Sync + 'a>>,
}

impl<'a> FusedRegion<'a> {
    /// A fused region over the iteration space `0..n`.
    #[must_use]
    pub fn over(n: usize) -> Self {
        Self {
            n,
            bodies: Vec::new(),
        }
    }

    /// Append a loop body. Returns `self` for chaining.
    #[must_use]
    pub fn then(mut self, body: impl Fn(usize) + Sync + 'a) -> Self {
        self.bodies.push(Box::new(body));
        self
    }

    /// Number of fused bodies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Whether the region has no bodies.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    /// Execute all bodies in a single parallel region (one
    /// synchronization event instead of `len()`).
    pub fn run(self, workers: &Workers) {
        if self.bodies.is_empty() || self.n == 0 {
            return;
        }
        let bodies = self.bodies;
        crate::doacross::doacross(workers, self.n, |i| {
            for b in &bodies {
                b(i);
            }
        });
    }

    /// Execute all bodies as separate sequential parallel regions
    /// (`len()` synchronization events) — the unfused baseline, kept so
    /// ablation benchmarks can measure exactly what fusion saves.
    pub fn run_unfused(self, workers: &Workers) {
        if self.n == 0 {
            return;
        }
        for b in self.bodies {
            crate::doacross::doacross(workers, self.n, &b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fused_runs_all_bodies() {
        let w = Workers::new(3);
        let a: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        let b: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        FusedRegion::over(40)
            .then(|i| {
                a[i].store(i + 1, Ordering::Relaxed);
            })
            .then(|i| {
                // depends on body 1 of the same iteration: legal fusion
                b[i].store(a[i].load(Ordering::Relaxed) * 2, Ordering::Relaxed);
            })
            .run(&w);
        for i in 0..40 {
            assert_eq!(a[i].load(Ordering::Relaxed), i + 1);
            assert_eq!(b[i].load(Ordering::Relaxed), (i + 1) * 2);
        }
    }

    #[test]
    fn fusion_saves_sync_events() {
        let w = Workers::new(2);
        FusedRegion::over(10)
            .then(|_| {})
            .then(|_| {})
            .then(|_| {})
            .run(&w);
        assert_eq!(w.sync_event_count(), 1);

        w.reset_counters();
        FusedRegion::over(10)
            .then(|_| {})
            .then(|_| {})
            .then(|_| {})
            .run_unfused(&w);
        assert_eq!(w.sync_event_count(), 3);
    }

    #[test]
    fn fused_equals_unfused_results() {
        let w = Workers::new(4);
        let n = 64;
        let run = |fused: bool| -> Vec<usize> {
            let x: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let region = FusedRegion::over(n)
                .then(|i| {
                    x[i].fetch_add(i, Ordering::Relaxed);
                })
                .then(|i| {
                    x[i].fetch_add(x[i].load(Ordering::Relaxed), Ordering::Relaxed);
                });
            if fused {
                region.run(&w);
            } else {
                region.run_unfused(&w);
            }
            x.iter().map(|v| v.load(Ordering::Relaxed)).collect()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn empty_region_is_noop() {
        let w = Workers::new(2);
        FusedRegion::over(10).run(&w);
        FusedRegion::over(0)
            .then(|_| panic!("must not run"))
            .run(&w);
        assert_eq!(w.sync_event_count(), 0);
    }

    #[test]
    fn len_and_is_empty() {
        let r = FusedRegion::over(5);
        assert!(r.is_empty());
        let r = r.then(|_| {});
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }
}
