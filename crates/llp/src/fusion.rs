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
//! number of synchronization events: a [`FusedRegion`] runs them as one
//! doacross region.

use crate::doacross::doacross_slabs_scratch;
use crate::pool::Workers;

/// Loop bodies fused under one parallel outer loop over the slabs of an
/// array, each executing task making its scratch once (paper Example
/// 3). An index loop, [`FusedRegion::over`], is the same region over
/// unit slabs with no scratch.
///
/// Bodies run in insertion order on each slab — semantically equivalent
/// to running the loops one after another *provided* slab `s` of a
/// later loop depends only on slab `s` of earlier loops (the same
/// legality condition loop fusion has in a parallelizing compiler).
/// Scratch is workspace, not a channel: [`FusedRegion::run_unfused`]
/// gives each body's region scratch of its own. The bodies are held by
/// value, as the nested tuple `(((), b1), b2)`, so a region allocates
/// nothing.
///
/// ```
/// use llp::{FusedRegion, Workers};
///
/// let workers = Workers::new(2);
/// let mut planes = vec![0u64; 4 * 3];
/// FusedRegion::slabs(&mut planes, 3, Vec::new)
///     .body(|l, plane, row: &mut Vec<u64>| {
///         row.clear();
///         row.extend((0..3).map(|j| l as u64 * 10 + j));
///         plane.copy_from_slice(row);
///     })
///     .body(|_, plane, _| plane[0] = plane.iter().sum())
///     .run(&workers);
/// assert_eq!(planes[9..], [93, 31, 32]);
/// // Two loop bodies, ONE synchronization event (paper Example 2).
/// assert_eq!(workers.sync_event_count(), 1);
/// ```
pub struct FusedRegion<'a, T, M, B> {
    data: &'a mut [T],
    slab_len: usize,
    make_scratch: M,
    bodies: B,
}

impl FusedRegion<'static, (), fn(), ()> {
    /// A fused region over the iteration space `0..n`: `n` unit slabs,
    /// no scratch. Its bodies, added with [`FusedRegion::then`], see
    /// only the index.
    #[must_use]
    pub fn over(n: usize) -> Self {
        // A `Vec` of zero-sized units allocates nothing to leak.
        FusedRegion::slabs(vec![(); n].leak(), 1, || ())
    }
}

impl<B> FusedRegion<'static, (), fn(), B> {
    /// Append an index-loop body `body(i)`.
    #[must_use]
    pub fn then(
        self,
        body: impl Fn(usize) + Sync,
    ) -> FusedRegion<'static, (), fn(), (B, impl IndexBody)> {
        self.body(move |i, _: &mut [()], _: &mut ()| body(i))
    }
}

/// An index-loop body on a unit slab with no scratch.
pub trait IndexBody: Fn(usize, &mut [()], &mut ()) + Sync {}

impl<F: Fn(usize, &mut [()], &mut ()) + Sync> IndexBody for F {}

impl<'a, T, M> FusedRegion<'a, T, M, ()> {
    /// A fused region over the length-`slab_len` slabs of `data`; each
    /// executing task makes its scratch with `make_scratch`.
    #[must_use]
    pub fn slabs(data: &'a mut [T], slab_len: usize, make_scratch: M) -> Self {
        Self {
            data,
            slab_len,
            make_scratch,
            bodies: (),
        }
    }
}

impl<'a, T: Send + Sync, M, B> FusedRegion<'a, T, M, B> {
    /// Append a body `body(s, slab, scratch)`.
    #[must_use]
    pub fn body<S, F>(self, body: F) -> FusedRegion<'a, T, M, (B, F)>
    where
        M: Fn() -> S,
        F: Fn(usize, &mut [T], &mut S) + Sync,
    {
        FusedRegion {
            data: self.data,
            slab_len: self.slab_len,
            make_scratch: self.make_scratch,
            bodies: (self.bodies, body),
        }
    }

    /// Execute all bodies in a single parallel region: one
    /// synchronization event, however many bodies.
    ///
    /// # Panics
    /// Panics if `slab_len == 0` or does not divide the data's length.
    pub fn run<S>(self, workers: &Workers)
    where
        M: Fn() -> S + Sync,
        B: FusedBodies<T, S>,
    {
        self.regions(workers, [None]);
    }

    /// Execute each body as its own parallel region, in insertion order
    /// — the unfused baseline, one synchronization event per body, kept
    /// so ablations can measure exactly what fusion saves.
    pub fn run_unfused<S>(self, workers: &Workers)
    where
        M: Fn() -> S + Sync,
        B: FusedBodies<T, S>,
    {
        self.regions(workers, (0..B::COUNT).map(Some));
    }

    /// One region per entry of `bodies`: body `b`, or every body.
    fn regions<S>(self, workers: &Workers, bodies: impl IntoIterator<Item = Option<usize>>)
    where
        M: Fn() -> S + Sync,
        B: FusedBodies<T, S>,
    {
        if B::COUNT == 0 {
            return;
        }
        for b in bodies {
            let run =
                |s, slab: &mut [T], scratch: &mut S| self.bodies.run_slab(b, s, slab, scratch);
            doacross_slabs_scratch(workers, self.data, self.slab_len, &self.make_scratch, run);
        }
    }
}

/// The bodies of a [`FusedRegion`]: `()`, or `(earlier bodies, body)`
/// with `body(s, slab, scratch)`.
pub trait FusedBodies<T, S>: Sync {
    /// How many bodies.
    const COUNT: usize;

    /// On slab `s`, run body `b` (counted from 0), or with `None` every
    /// body in insertion order.
    fn run_slab(&self, b: Option<usize>, s: usize, slab: &mut [T], scratch: &mut S);
}

impl<T, S> FusedBodies<T, S> for () {
    const COUNT: usize = 0;

    fn run_slab(&self, _: Option<usize>, _: usize, _: &mut [T], _: &mut S) {}
}

impl<T, S, B, F> FusedBodies<T, S> for (B, F)
where
    B: FusedBodies<T, S>,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    const COUNT: usize = B::COUNT + 1;

    #[inline]
    fn run_slab(&self, b: Option<usize>, s: usize, slab: &mut [T], scratch: &mut S) {
        self.0.run_slab(b, s, slab, scratch);
        if b.is_none_or(|b| b == B::COUNT) {
            (self.1)(s, slab, scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Policy;
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

    /// Three bodies over 13 slabs of 4: each reads what the one before
    /// it left in the slab, so a body that ran out of order, twice, or on
    /// the wrong slab changes the result.
    fn three_bodies(w: &Workers, fused: bool) -> Vec<u64> {
        let mut data = vec![1u64; 13 * 4];
        let region = FusedRegion::slabs(&mut data, 4, || ())
            .body(|s, slab, ()| {
                for v in slab.iter_mut() {
                    *v = *v * 3 + s as u64;
                }
            })
            .body(|_, slab, _| slab[0] += slab[3])
            .body(|s, slab, _| slab[1] *= 7 + s as u64);
        if fused {
            region.run(w);
        } else {
            region.run_unfused(w);
        }
        data
    }

    #[test]
    fn slab_form_fused_and_unfused_leave_identical_slabs() {
        for policy in [Policy::Static, Policy::Dynamic { chunk: 1 }] {
            for p in [1, 3] {
                let w = Workers::new(p).with_policy(policy);
                let fused = three_bodies(&w, true);
                assert_eq!(fused, three_bodies(&w, false), "{policy:?} P = {p}");
                assert_eq!(fused[12..16], [6 + 6, 6 * 10, 6, 6]);
            }
        }
    }

    #[test]
    fn slab_form_records_one_sync_event_fused_and_one_per_body_unfused() {
        let w = Workers::new(3);
        three_bodies(&w, true);
        assert_eq!(w.sync_event_count(), 1);
        w.reset_counters();
        three_bodies(&w, false);
        assert_eq!(w.sync_event_count(), 3);
    }

    /// Scratch made by a two-body region over 10 slabs.
    fn scratch_made(w: &Workers, fused: bool) -> usize {
        let made = AtomicUsize::new(0);
        let mut data = vec![0u8; 10 * 2];
        let region = FusedRegion::slabs(&mut data, 2, || {
            made.fetch_add(1, Ordering::Relaxed);
        })
        .body(|_, _, ()| {})
        .body(|_, _, ()| {});
        if fused {
            region.run(w);
        } else {
            region.run_unfused(w);
        }
        made.into_inner()
    }

    #[test]
    fn slab_form_makes_scratch_once_per_executing_task() {
        // 10 slabs: a static region runs min(P, 10) chunks, a
        // `Dynamic { chunk: 1 }` one min(P, 10) claimants; each task
        // makes one scratch whatever the number of bodies or slabs, and
        // the unfused run makes one per task per body.
        for policy in [Policy::Static, Policy::Dynamic { chunk: 1 }] {
            for p in [1, 3] {
                let w = Workers::new(p).with_policy(policy);
                assert_eq!(scratch_made(&w, true), p, "{policy:?} P = {p}");
                assert_eq!(scratch_made(&w, false), 2 * p, "{policy:?} P = {p}");
            }
        }
    }

    #[test]
    fn slab_form_over_an_empty_slice_runs_no_region() {
        let w = Workers::new(2);
        for fused in [true, false] {
            let region = FusedRegion::slabs(&mut [0.0f64; 0], 5, || panic!("no task runs"))
                .body(|_, _, ()| panic!("no slab"));
            if fused {
                region.run(&w);
            } else {
                region.run_unfused(&w);
            }
        }
        assert_eq!(w.sync_event_count(), 0);
    }
}
